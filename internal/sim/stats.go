// Engine work accounting. Every engine counts the work it dispatches —
// events popped from the heap, coroutine handoffs between processes,
// processes spawned, the event-heap high-water mark, and the final
// virtual clock. All of it is driven by the deterministic event sequence,
// so a run's EngineStats are as reproducible as its tables: identical on
// every execution, at any parallelism level.
//
// StatsCollector gathers those counters across all the engines one
// logical operation creates (an experiment builds one engine per platform
// plus workload simulators). Attachment is by goroutine: CollectStats
// binds a collector to the calling goroutine for the duration of a
// function, and every NewEngine on a bound goroutine registers with the
// bound collector. Worker pools that fan an operation out propagate the
// binding with InheritStats, so collection survives the parallel runners
// (core.RunAll, bench.RunPhaseBreakdowns) unchanged.
//
// The goroutine registry here is the module's only one: the engine
// parallelism and the telemetry collector (BindTelemetry) live in the
// same binding, NewEngine resolves it once, and everything built on the
// engine reads it from there.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// EngineStats is a deterministic snapshot of engine work counters. For a
// single engine, Engines is 1 and HeapHighWater is that engine's peak
// event-queue depth; merged snapshots sum everything except HeapHighWater,
// which takes the maximum across engines.
type EngineStats struct {
	// Engines is the number of engines folded into this snapshot.
	Engines int64 `json:"engines"`
	// Events counts events dispatched by the engine loop (callbacks and
	// process wakeups, including stale ones).
	Events int64 `json:"events"`
	// ProcSwitches counts control handoffs between process coroutines
	// (self-wakeups cost no handoff and are not counted; see Engine).
	ProcSwitches int64 `json:"proc_switches"`
	// ProcsSpawned counts processes created with Go/GoAt.
	ProcsSpawned int64 `json:"procs_spawned"`
	// HeapHighWater is the peak event-heap depth observed.
	HeapHighWater int64 `json:"heap_high_water"`
	// Cycles is the engine's final virtual clock — total simulated cycles.
	Cycles int64 `json:"cycles"`

	// PDES health counters, nonzero only for multi-partition engines:
	// Windows counts per-partition quantum-window participations,
	// BarrierStallCycles the simulated cycles partitions lagged the window
	// bound at barriers, OutboxMsgs the cross-partition messages buffered.
	// All are functions of event timestamps alone, so they are identical
	// at every worker count.
	Windows            int64 `json:"windows,omitempty"`
	BarrierStallCycles int64 `json:"barrier_stall_cycles,omitempty"`
	OutboxMsgs         int64 `json:"outbox_msgs,omitempty"`
	// Parts breaks the health counters down per partition. Only
	// single-engine snapshots keep the breakdown; merging two engines
	// drops it (there is no meaningful cross-engine partition identity),
	// which keeps Merge order-independent.
	Parts []PartStats `json:"parts,omitempty"`
}

// PartStats is one partition's slice of an engine's health counters.
type PartStats struct {
	// Part is the partition id; Name its diagnostic name.
	Part int    `json:"part"`
	Name string `json:"name,omitempty"`
	// Events is the events the partition dispatched; Windows the quantum
	// windows it participated in; StallCycles the cycles its clock lagged
	// the window bound at barriers; OutboxMsgs the messages it sent to
	// other partitions.
	Events      int64 `json:"events"`
	Windows     int64 `json:"windows"`
	StallCycles int64 `json:"barrier_stall_cycles"`
	OutboxMsgs  int64 `json:"outbox_msgs"`
}

// Merge folds o into s: counters sum, HeapHighWater takes the maximum.
// The per-partition breakdown survives only while the fold holds a single
// engine; folding a second engine in clears it, in either order.
func (s *EngineStats) Merge(o EngineStats) {
	if s.Engines == 0 {
		s.Parts = o.Parts
	} else if o.Engines > 0 {
		s.Parts = nil
	}
	s.Engines += o.Engines
	s.Events += o.Events
	s.ProcSwitches += o.ProcSwitches
	s.ProcsSpawned += o.ProcsSpawned
	if o.HeapHighWater > s.HeapHighWater {
		s.HeapHighWater = o.HeapHighWater
	}
	s.Cycles += o.Cycles
	s.Windows += o.Windows
	s.BarrierStallCycles += o.BarrierStallCycles
	s.OutboxMsgs += o.OutboxMsgs
}

// Stats returns the engine's work counters, folded across its partitions:
// events, switches, and spawns sum; HeapHighWater is the deepest partition
// heap; Cycles is the furthest partition clock. Every term is driven by
// the deterministic event sequence, so the snapshot is identical at any
// worker count. Call it only after the engine has gone idle (Run
// returned); reading mid-run from another goroutine is a data race.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Engines: 1}
	for _, s := range e.parts {
		st.Events += s.statEvents
		st.ProcSwitches += s.statSwitches
		st.ProcsSpawned += s.statSpawned
		if int64(s.statHeapHW) > st.HeapHighWater {
			st.HeapHighWater = int64(s.statHeapHW)
		}
		if int64(s.now) > st.Cycles {
			st.Cycles = int64(s.now)
		}
	}
	if len(e.parts) > 1 {
		st.Parts = make([]PartStats, len(e.parts))
		for i, s := range e.parts {
			st.Windows += s.statWindows
			st.BarrierStallCycles += s.statStall
			st.OutboxMsgs += s.statMsgs
			st.Parts[i] = PartStats{
				Part: int(s.id), Name: s.name,
				Events: s.statEvents, Windows: s.statWindows,
				StallCycles: s.statStall, OutboxMsgs: s.statMsgs,
			}
		}
	}
	return st
}

// StatsCollector accumulates the engines created by the goroutines it is
// bound to. Safe for concurrent attachment; snapshot only after the
// collected engines have quiesced.
type StatsCollector struct {
	mu      sync.Mutex
	engines []*Engine
}

// NewStatsCollector returns an empty collector. Bind it to a goroutine
// with Bind (or use the CollectStats convenience wrapper).
func NewStatsCollector() *StatsCollector { return &StatsCollector{} }

func (c *StatsCollector) attach(e *Engine) {
	c.mu.Lock()
	c.engines = append(c.engines, e)
	c.mu.Unlock()
}

// Snapshot merges the stats of every collected engine. HeapHighWater is
// the maximum across engines; everything else sums. The result is
// independent of engine-creation order, so it is byte-identical across
// parallelism levels of the runners that propagate the binding.
func (c *StatsCollector) Snapshot() EngineStats {
	var total EngineStats
	for _, s := range c.PerEngine() {
		total.Merge(s)
	}
	return total
}

// PerEngine returns each collected engine's stats in creation order.
// Creation order is deterministic for serial runs; under a parallel
// runner only the multiset (and therefore Snapshot) is stable.
func (c *StatsCollector) PerEngine() []EngineStats {
	c.mu.Lock()
	engines := make([]*Engine, len(c.engines))
	copy(engines, c.engines)
	c.mu.Unlock()
	out := make([]EngineStats, len(engines))
	for i, e := range engines {
		out[i] = e.Stats()
	}
	return out
}

// binding is the per-goroutine configuration engines inherit at NewEngine:
// the stats collector they register with, the window-dispatch parallelism
// multi-partition engines run at, and the telemetry collector machines
// sample into (opaque here; see BindTelemetry). Every part is scoped the
// same way (a detach restores the previous value).
type binding struct {
	col *StatsCollector
	par int // 0 = unset (engines default to 1 worker)
	tel any
}

// parallelism returns the bound worker count (1 when unset).
func (b binding) parallelism() int {
	if b.par > 0 {
		return b.par
	}
	return 1
}

// registry maps goroutine id -> the binding attached to it: the module's
// one goroutine-keyed table. Bindings are strictly scoped (every bind
// returns the detach that restores the previous binding), so the map
// stays small: one entry per goroutine currently inside a bound region.
// live mirrors len(m), so a lookup while nothing is bound anywhere costs
// one atomic load and no goroutine-id parse.
var registry struct {
	mu   sync.Mutex
	m    map[uint64]binding
	live atomic.Int64
}

// setBinding installs b for goroutine g and returns a detach restoring the
// previous state. Callers hold no lock.
func setBinding(g uint64, b binding) (detach func()) {
	registry.mu.Lock()
	if registry.m == nil {
		registry.m = make(map[uint64]binding)
	}
	prev, hadPrev := registry.m[g]
	registry.m[g] = b
	registry.live.Store(int64(len(registry.m)))
	registry.mu.Unlock()
	return func() {
		registry.mu.Lock()
		if hadPrev {
			registry.m[g] = prev
		} else {
			delete(registry.m, g)
		}
		registry.live.Store(int64(len(registry.m)))
		registry.mu.Unlock()
	}
}

// getBinding returns the binding attached to goroutine g (zero if none).
func getBinding(g uint64) binding {
	registry.mu.Lock()
	b := registry.m[g]
	registry.mu.Unlock()
	return b
}

// currentBinding returns the calling goroutine's binding. While no
// goroutine is bound it returns the zero binding without identifying the
// caller: a goroutine's own binding, once set, keeps live above zero
// until its detach, so the shortcut never hides it.
func currentBinding() binding {
	if registry.live.Load() == 0 {
		return binding{}
	}
	return getBinding(goid())
}

// rebind applies edit to the calling goroutine's binding and installs the
// result; the returned detach restores the previous binding.
func rebind(edit func(*binding)) (detach func()) {
	g := goid()
	b := getBinding(g)
	edit(&b)
	return setBinding(g, b)
}

// goid returns the calling goroutine's id, parsed from the runtime.Stack
// header ("goroutine N [...]"). It is called only when a binding is set,
// captured or resolved — once per bind and at most once per NewEngine —
// never on an engine's event, window or spawn path. The id never reaches
// simulation output; it is purely a registry key.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Bind attaches c to the calling goroutine: every NewEngine on this
// goroutine registers with c until the returned detach runs. Bindings
// nest; detach restores the previous one (the goroutine's bound
// parallelism is untouched). A nil receiver binds nothing and returns a
// no-op detach.
func (c *StatsCollector) Bind() (detach func()) {
	if c == nil {
		return func() {}
	}
	return rebind(func(b *binding) { b.col = c })
}

// BindParallelism binds an engine-parallelism level to the calling
// goroutine: every NewEngine on this goroutine until the returned detach
// runs adopts n as its window-dispatch worker count (the -par knob). The
// value only matters for multi-partition engines and never affects
// results, only wall-clock time. Values < 1 are treated as 1. The binding
// nests and propagates through InheritStats exactly like the stats
// collector, so worker pools carry it unchanged.
func BindParallelism(n int) (detach func()) {
	if n < 1 {
		n = 1
	}
	return rebind(func(b *binding) { b.par = n })
}

// BoundParallelism returns the engine-parallelism level bound to the
// calling goroutine (1 when unbound).
func BoundParallelism() int { return currentBinding().parallelism() }

// BindTelemetry attaches a telemetry collector to the calling goroutine:
// every NewEngine on it until the returned detach runs keeps v, readable
// through Engine.Telemetry. sim never looks inside v; the telemetry
// package's Bind, Inherit and Collect are the typed front end, and this
// shared registry is what lets one lookup per engine serve both. A nil v
// binds nothing and returns a no-op detach.
func BindTelemetry(v any) (detach func()) {
	if v == nil {
		return func() {}
	}
	return rebind(func(b *binding) { b.tel = v })
}

// BoundTelemetry returns the telemetry collector bound to the calling
// goroutine (nil when none).
func BoundTelemetry() any { return currentBinding().tel }

// InheritStats captures the calling goroutine's stats collector and bound
// engine parallelism and returns a bind function for a spawned worker
// goroutine to call at its top; bind returns the worker's detach. With
// nothing bound, both are no-ops. Worker pools use this so engines
// created on their workers still register with the spawning request's
// collector and run at its parallelism:
//
//	bind := sim.InheritStats()
//	go func() {
//		detach := bind()
//		defer detach()
//		...
//	}()
func InheritStats() (bind func() (detach func())) {
	cur := currentBinding()
	col, par := cur.col, cur.par
	return func() func() {
		if col == nil && par == 0 {
			return func() {}
		}
		return rebind(func(b *binding) { b.col, b.par = col, par })
	}
}

// CollectStats runs fn with a fresh collector bound to the calling
// goroutine and returns the collector. Every engine fn creates — directly
// or on worker goroutines that propagate the binding with InheritStats —
// is collected.
func CollectStats(fn func()) *StatsCollector {
	c := NewStatsCollector()
	detach := c.Bind()
	defer detach()
	fn()
	return c
}
