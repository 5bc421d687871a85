// Stand-in engine API for the cross-package analyzers: a named type
// Engine (dispatch surface Go/GoAt/GoOn/At/After/SendTo plus the tracer
// hook), the explicit-partition handles Proc (SendTo) and Part
// (Go/At/After/SendTo), and the goroutine-bound stats collector, in a
// package named sim — which is all partsafe and bindcheck key on, so
// fixtures exercise them without importing the real engine. No clocks,
// no randomness: this file must stay silent under detclock.
package sim

// Engine mimics the real event-driven engine's dispatch surface.
type Engine struct {
	now int64
}

// NewEngine registers with the calling goroutine's bound collector in the
// real package; here it only needs the name.
func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Go(body func())                       {}
func (e *Engine) GoAt(at int64, body func())           {}
func (e *Engine) GoOn(part int, at int64, body func()) {}
func (e *Engine) At(at int64, fn func())               {}
func (e *Engine) After(d int64, fn func())             {}
func (e *Engine) SendTo(part int, at int64, fn func()) {}
func (e *Engine) SetTracer(fn func(at int64))          {}
func (e *Engine) Run()                                 {}
func (e *Engine) Part(id int) Part                     { return Part{} }

// Proc mimics a running process: its SendTo is dispatch surface.
type Proc struct{ part int }

func (p *Proc) SendTo(part int, d int64, fn func()) {}
func (p *Proc) Now() int64                          { return 0 }

// Part mimics the explicit partition handle.
type Part struct{ id int }

func (h Part) Go(body func())                      {}
func (h Part) At(at int64, fn func())              {}
func (h Part) After(d int64, fn func())            {}
func (h Part) SendTo(part int, d int64, fn func()) {}
func (h Part) Now() int64                          { return 0 }

// StatsCollector mimics the goroutine-bound stats collector.
type StatsCollector struct{ n int64 }

// Bind attaches the collector to the calling goroutine.
func (c *StatsCollector) Bind() func() { return func() {} }

// InheritStats captures the caller's binding; invoking the returned bind
// function attaches it to the invoking goroutine (the worker-pool idiom).
func InheritStats() func() func() {
	return func() func() { return func() {} }
}

// CollectStats binds a fresh collector to the calling goroutine.
func CollectStats() *StatsCollector { return &StatsCollector{} }

// BindParallelism is a no-op in the real package: it binds nothing, so
// it is no stats-collector bind.
func BindParallelism(n int) func() { return func() {} }

// BindTelemetry is the registry entry the telemetry wrappers delegate to.
func BindTelemetry(v any) func() { return func() {} }
