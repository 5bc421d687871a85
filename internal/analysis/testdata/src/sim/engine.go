// Stand-in engine API for the cross-package analyzers: a named type
// Engine (dispatch surface Go/GoAt/GoOn/At/After/SendTo plus the
// process-lifecycle tap) and the explicit-partition handles Proc (SendTo) and Part
// (Go/At/After/SendTo), in a package named sim — which is all partsafe
// keys on, so fixtures exercise it without importing the real engine. No
// clocks, no randomness: this file must stay silent under detclock.
package sim

// Engine mimics the real event-driven engine's dispatch surface.
type Engine struct {
	now int64
}

// NewEngine returns a stand-in engine.
func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Go(body func())                       {}
func (e *Engine) GoAt(at int64, body func())           {}
func (e *Engine) GoOn(part int, at int64, body func()) {}
func (e *Engine) At(at int64, fn func())               {}
func (e *Engine) After(d int64, fn func())             {}
func (e *Engine) SendTo(part int, at int64, fn func()) {}
func (e *Engine) SetProcTap(fn func(at int64))         {}
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
