// Goroutine-scoped sampler binding, mirroring sim's StatsCollector
// discipline: a Collector bound to a goroutine receives a fresh Sampler
// from every machine built on that goroutine (hw.New consults
// EngineSampler). The binding is stored in sim's goroutine registry next
// to the stats collector, so an engine resolves both with one lookup, and
// sim.ForEach carries both onto its workers: collection survives the
// parallel runners (core.RunAll, bench.RunPhaseBreakdowns) unchanged. The
// goroutine id never reaches simulation output.
package telemetry

import (
	"sort"
	"strings"
	"sync"

	"armvirt/internal/sim"
)

// Collector gathers the samplers of every machine built while it is bound.
// Safe for concurrent attachment; snapshot only after the sampled engines
// have quiesced.
type Collector struct {
	intervalUs float64
	mu         sync.Mutex
	samplers   []*Sampler
}

// NewCollector returns a collector whose samplers bucket on intervalUs
// microseconds of simulated time (values <= 0 default to 10us).
func NewCollector(intervalUs float64) *Collector {
	if intervalUs <= 0 {
		intervalUs = 10
	}
	return &Collector{intervalUs: intervalUs}
}

// NewSampler builds a sampler for an ncpu machine at freqMHz on the
// collector's interval and registers it.
func (c *Collector) NewSampler(ncpu, freqMHz int) *Sampler {
	if c == nil {
		return nil
	}
	s := NewSampler(ncpu, freqMHz, sim.Time(c.intervalUs*float64(freqMHz)))
	c.mu.Lock()
	c.samplers = append(c.samplers, s)
	c.mu.Unlock()
	return s
}

// Samplers returns the collected samplers in attachment order (which is
// deterministic only for serial runs; see SortedSeries).
func (c *Collector) Samplers() []*Sampler {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Sampler(nil), c.samplers...)
}

// SeriesAll returns every sampler's series in attachment order.
func (c *Collector) SeriesAll() []Series {
	if c == nil {
		return nil
	}
	out := make([]Series, 0)
	for _, s := range c.Samplers() {
		out = append(out, s.Series())
	}
	return out
}

// SortedSeries returns every sampler's series in a canonical
// content order, independent of attachment order — the byte-stable
// snapshot parallel runners (-j workers attach samplers in host-scheduling
// order) should render from.
func (c *Collector) SortedSeries() []Series {
	if c == nil {
		return nil
	}
	out := c.SeriesAll()
	keyOf := make([]string, len(out))
	for i, ts := range out {
		var b strings.Builder
		WriteCSV(&b, []Series{ts})
		keyOf[i] = b.String()
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keyOf[idx[a]] < keyOf[idx[b]] })
	sorted := make([]Series, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// Bind attaches c to the calling goroutine: every machine built on it
// (hw.New -> EngineSampler) receives a sampler registered with c, until
// the returned detach runs. Bindings nest; a nil receiver binds nothing.
// The binding lives in sim's goroutine registry (sim.BindTelemetry), so
// NewEngine resolves it in the same lookup as the stats collector.
func (c *Collector) Bind() (detach func()) {
	if c == nil {
		return func() {}
	}
	return sim.BindTelemetry(c)
}

// EngineSampler returns a fresh sampler from the collector that was bound
// to the goroutine that created eng (nil — a valid no-op sampler — when
// none was). hw.New calls this for every machine it builds: sim.NewEngine
// resolved the binding once, so building a machine does no further
// goroutine lookup.
func EngineSampler(eng *sim.Engine, ncpu, freqMHz int) *Sampler {
	c, _ := eng.Telemetry().(*Collector)
	return c.NewSampler(ncpu, freqMHz)
}

// Collect runs fn with a fresh collector (bucketing on intervalUs
// microseconds) bound to the calling goroutine and returns the collector.
// Every machine fn builds — directly or on sim.ForEach workers, which
// carry the binding — is sampled.
func Collect(intervalUs float64, fn func()) *Collector {
	c := NewCollector(intervalUs)
	detach := c.Bind()
	defer detach()
	fn()
	return c
}
