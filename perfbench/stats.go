package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is one outlier, not a tail.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank p99 of xs, or, when fewer than minBeyond
// samples would lie above the p99, the highest rank that leaves minBeyond
// above it. pct is the percentile the value stands for. When that rank
// would fall below the median (n < 2*minBeyond+1) it reports the median
// and pct 50. An infinite sample (a failed request) sorts last, so it
// counts as missing any limit.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-idx < minBeyond {
		idx = n - 1 - minBeyond
	}
	if idx < (n-1)/2 {
		return median(xs), 50
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// A ladder's reference tail is read per window of at least minWindow
// samples, enough for a true p99 with minBeyond above it, over at most
// maxWindows consecutive windows.
const (
	minWindow  = 100 * minBeyond
	maxWindows = 10
)

// windowedTail splits xs, in the order the requests completed, into as
// many equal consecutive windows as hold minWindow samples each (at most
// maxWindows) and returns the median of the windows' tails, with the
// median percentile they stand for. One stall then moves one window, not
// the run's figure. With fewer than 2*minWindow samples it is tail(xs).
func windowedTail(xs []float64) (value, pct float64, windows int) {
	k := min(maxWindows, len(xs)/minWindow)
	if k < 2 {
		v, p := tail(xs)
		return v, p, 1
	}
	vs, ps := make([]float64, k), make([]float64, k)
	for i := range vs {
		vs[i], ps[i] = tail(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	return median(vs), median(ps), k
}

// paperErrPct is the mean of |measured - paper| / paper, in percent, over
// every row pair whose metric names differ only by the "paper_" prefix
// and whose labels match. Pairs with a zero paper value have no relative
// error and are skipped. pairs is the number of pairs averaged.
func paperErrPct(rows []row) (pct float64, pairs int) {
	measured := make(map[string]float64)
	for _, r := range rows {
		measured[r.key()] = r.Value
	}
	var sum float64
	for _, r := range rows {
		if len(r.Metric) <= len(paperPrefix) || r.Metric[:len(paperPrefix)] != paperPrefix || r.Value == 0 {
			continue
		}
		m, ok := measured[row{Metric: r.Metric[len(paperPrefix):], Labels: r.Labels}.key()]
		if !ok {
			continue
		}
		sum += math.Abs(m-r.Value) / math.Abs(r.Value)
		pairs++
	}
	if pairs == 0 {
		return 0, 0
	}
	return 100 * sum / float64(pairs), pairs
}

const paperPrefix = "paper_"

// row is the JSON shape of one bench.Row, decoded back from emitted
// output so the accuracy check reads what users read.
type row struct {
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// key identifies a row by metric and sorted labels.
func (r row) key() string {
	ks := make([]string, 0, len(r.Labels))
	for k := range r.Labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := r.Metric
	for _, k := range ks {
		out += "\x00" + k + "=" + r.Labels[k]
	}
	return out
}
