// Command armvirt-loadgen drives an armvirt-serve replica set with an
// open-loop workload and reports the serving-tier numbers the paper's
// methodology cares about (§V): latency quantiles under offered load,
// achieved throughput, and the shed rate once admission control engages.
//
//	armvirt-loadgen -targets http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	  -rps 50 -duration 10s -paths /v1/experiments/T1?format=json
//
// Open-loop means arrivals come off a fixed-rate clock regardless of
// how fast responses return — the coordinated-omission-free discipline
// serving benchmarks need: a slow server faces a growing backlog, not a
// politely waiting client. Each arrival goes round-robin to a target
// that currently answers /readyz (polled in the background); arrivals
// with no ready target are counted as skips, not errors, so draining a
// replica mid-run (the cluster-smoke SIGTERM leg) sheds load to the
// rest instead of manufacturing failures.
//
// Latencies feed the same log2-bucketed stats.Histogram the study's
// instrumentation uses. -json emits a cluster.LoadReport document, the
// shape `make cluster-smoke` checks with jq.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armvirt/internal/cluster"
	"armvirt/internal/stats"
)

// collector accumulates per-response accounting across arrival
// goroutines. One mutex is plenty: observations are microseconds apart
// at worst, and the histogram's Observe is cheap.
type collector struct {
	mu        sync.Mutex
	lat       *stats.Histogram
	ok        int64
	shed      int64
	errors    int64
	forwarded int64
	outcomes  map[string]int64
	status    map[string]int64
}

func newCollector() *collector {
	return &collector{
		lat:      stats.NewHistogram(),
		outcomes: make(map[string]int64),
		status:   make(map[string]int64),
	}
}

// observe records one completed request. status 0 means a transport
// error.
func (c *collector) observe(status int, outcome, peer string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.status[fmt.Sprintf("%d", status)]++
	switch {
	case status >= 200 && status < 300:
		c.ok++
		c.lat.Observe(int64(d / time.Microsecond))
	case status == http.StatusTooManyRequests:
		c.shed++
	default:
		c.errors++
	}
	if outcome != "" {
		c.outcomes[outcome]++
	}
	if peer != "" {
		c.forwarded++
	}
}

// readiness polls every target's /readyz and routes arrivals to ready
// targets round-robin. A target with no /readyz answer (connection
// refused mid-restart) counts as not ready.
type readiness struct {
	targets []string
	client  *http.Client

	mu      sync.Mutex
	ready   map[string]bool
	unready map[string]int64
	rr      int
	skips   int64
}

func newReadiness(targets []string, client *http.Client) *readiness {
	r := &readiness{
		targets: targets,
		client:  client,
		ready:   make(map[string]bool),
		unready: make(map[string]int64),
	}
	r.pollOnce()
	return r
}

func (r *readiness) pollOnce() {
	for _, t := range r.targets {
		ok := false
		resp, err := r.client.Get(t + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
		r.mu.Lock()
		r.ready[t] = ok
		if !ok {
			r.unready[t]++
		}
		r.mu.Unlock()
	}
}

// run polls until done is closed.
func (r *readiness) run(done <-chan struct{}, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			r.pollOnce()
		}
	}
}

// next returns the next ready target round-robin, or "" (and counts a
// skip) when none is ready.
func (r *readiness) next() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(r.targets); i++ {
		t := r.targets[(r.rr+i)%len(r.targets)]
		if r.ready[t] {
			r.rr = (r.rr + i + 1) % len(r.targets)
			return t
		}
	}
	r.skips++
	return ""
}

func (r *readiness) snapshot() (skips int64, unready map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u := make(map[string]int64, len(r.unready))
	for k, v := range r.unready {
		u[k] = v
	}
	return r.skips, u
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func main() {
	targetsFlag := flag.String("targets", "http://127.0.0.1:8080", "replica base URLs, comma-separated")
	pathsFlag := flag.String("paths", "/v1/experiments/T1?format=json", "request paths to cycle through, comma-separated")
	rps := flag.Float64("rps", 20, "open-loop arrival rate (requests/second)")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	pollEvery := flag.Duration("poll", 200*time.Millisecond, "/readyz poll interval")
	reqTimeout := flag.Duration("timeout", 90*time.Second, "per-request timeout")
	jsonOut := flag.Bool("json", false, "emit the cluster.LoadReport JSON document on stdout")
	flag.Parse()

	targets := splitList(*targetsFlag)
	paths := splitList(*pathsFlag)
	if len(targets) == 0 || len(paths) == 0 || *rps <= 0 {
		fmt.Fprintln(os.Stderr, "armvirt-loadgen: need at least one target, one path, and -rps > 0")
		os.Exit(2)
	}

	client := &http.Client{Timeout: *reqTimeout}
	pollClient := &http.Client{Timeout: 2 * time.Second}
	col := newCollector()
	rd := newReadiness(targets, pollClient)

	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() { defer pollWG.Done(); rd.run(pollDone, *pollEvery) }()

	var sent atomic.Int64
	var reqWG sync.WaitGroup
	interval := time.Duration(float64(time.Second) / *rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	stop := time.After(*duration)
	start := time.Now()

arrivals:
	for i := 0; ; i++ {
		select {
		case <-stop:
			break arrivals
		case <-tick.C:
			target := rd.next()
			if target == "" {
				continue // counted as a not-ready skip
			}
			url := target + paths[i%len(paths)]
			sent.Add(1)
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					col.observe(0, "", "", 0)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				col.observe(resp.StatusCode, resp.Header.Get("X-Cache"),
					resp.Header.Get(cluster.PeerHeader), time.Since(t0))
			}()
		}
	}
	tick.Stop()
	reqWG.Wait()
	elapsed := time.Since(start)
	close(pollDone)
	pollWG.Wait()

	skips, unready := rd.snapshot()
	col.mu.Lock()
	rep := cluster.LoadReport{
		Kind:          "armvirt-loadgen",
		Targets:       targets,
		Paths:         paths,
		OfferedRPS:    *rps,
		DurationS:     duration.Seconds(),
		Sent:          sent.Load(),
		OK:            col.ok,
		Shed:          col.shed,
		Errors:        col.errors,
		NotReadySkips: skips,
		Forwarded:     col.forwarded,
		Outcomes:      col.outcomes,
		Status:        col.status,
		Unready:       unready,
		Latency: cluster.LatencySummary{
			P50:  col.lat.Quantile(0.50),
			P95:  col.lat.Quantile(0.95),
			P99:  col.lat.Quantile(0.99),
			Mean: col.lat.HMean(),
			Max:  col.lat.HMax(),
			N:    col.lat.N(),
		},
	}
	col.mu.Unlock()
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.OK) / elapsed.Seconds()
	}
	if rep.Sent > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Sent)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "armvirt-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	printText(os.Stdout, rep)
}

// printText renders the human summary.
func printText(w io.Writer, rep cluster.LoadReport) {
	fmt.Fprintf(w, "armvirt-loadgen: %d sent at %.1f rps offered over %.1fs (%d targets)\n",
		rep.Sent, rep.OfferedRPS, rep.DurationS, len(rep.Targets))
	fmt.Fprintf(w, "  ok %d  shed %d (%.1f%%)  errors %d  not-ready skips %d  forwarded %d\n",
		rep.OK, rep.Shed, 100*rep.ShedRate, rep.Errors, rep.NotReadySkips, rep.Forwarded)
	fmt.Fprintf(w, "  achieved %.1f rps\n", rep.AchievedRPS)
	fmt.Fprintf(w, "  latency_us p50 %.0f  p95 %.0f  p99 %.0f  mean %.0f  max %d  (n=%d)\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Mean, rep.Latency.Max, rep.Latency.N)
	if len(rep.Outcomes) > 0 {
		keys := make([]string, 0, len(rep.Outcomes))
		for k := range rep.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  cache:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, rep.Outcomes[k])
		}
		fmt.Fprintln(w)
	}
	if len(rep.Status) > 0 {
		keys := make([]string, 0, len(rep.Status))
		for k := range rep.Status {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  status:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, rep.Status[k])
		}
		fmt.Fprintln(w)
	}
}
