// Engine work accounting. Every engine counts the work it dispatches —
// events popped from the heap, coroutine handoffs between processes,
// processes spawned, the event-heap high-water mark, and the final
// virtual clock. All of it is driven by the deterministic event sequence,
// so a run's EngineStats are as reproducible as its tables: identical on
// every execution, at any -j level of the runners that create engines.
//
// StatsCollector gathers those counters across all the engines one
// logical operation creates (an experiment builds one engine per platform
// plus workload simulators). Attachment is by goroutine: CollectStats
// binds a collector to the calling goroutine for the duration of a
// function, and every NewEngine on a bound goroutine registers with the
// bound collector. Host parallelism goes through ForEach, the module's one
// worker pool: each of its workers runs under the caller's whole binding,
// so collection survives the parallel runners (core.RunAll,
// bench.RunPhaseBreakdowns) unchanged and no caller binds by hand.
//
// The goroutine registry here is the module's only one: the telemetry
// collector (BindTelemetry) lives in the same binding, NewEngine resolves
// it once, and everything built on the engine reads it from there.
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
	// All are functions of event timestamps alone.
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
// the deterministic event sequence, so the snapshot is reproducible. Call
// it only after the engine has gone idle (Run returned); reading mid-run
// from another goroutine is a data race.
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
// the stats collector they register with and the telemetry collector
// machines sample into (opaque here; see BindTelemetry). Both parts are
// scoped the same way (a detach restores the previous value).
type binding struct {
	col *StatsCollector
	tel any
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
// telemetry is untouched). A nil receiver binds nothing and returns a
// no-op detach.
func (c *StatsCollector) Bind() (detach func()) {
	if c == nil {
		return func() {}
	}
	return rebind(func(b *binding) { b.col = c })
}

// BindParallelism is a no-op kept for callers written when a
// multi-partition engine could dispatch its quantum windows on n host
// workers. Every engine now runs its windows on the run goroutine (see
// partition.go), so n is ignored and nothing is bound: the returned
// detach does nothing. It does not bind a stats collector either, so it
// cannot stand in for Bind on a worker goroutine.
func BindParallelism(n int) (detach func()) { return func() {} }

// BindTelemetry attaches a telemetry collector to the calling goroutine:
// every NewEngine on it until the returned detach runs keeps v, readable
// through Engine.Telemetry. sim never looks inside v; the telemetry
// package's Bind and Collect are the typed front end, and this
// shared registry is what lets one lookup per engine serve both. A nil v
// binds nothing and returns a no-op detach.
func BindTelemetry(v any) (detach func()) {
	if v == nil {
		return func() {}
	}
	return rebind(func(b *binding) { b.tel = v })
}

// ForEach calls fn(i) once for every i in [0, n) on min(max(workers, 1),
// n) worker goroutines and returns when every call has returned; no
// worker outlives it. It is the module's one host worker pool. Each worker
// runs under the calling goroutine's whole binding (stats collector and
// telemetry), so engines built inside fn register with the caller's
// collectors exactly as they would on the caller. Calls are claimed in
// index order; callers that need ordered output store results by index.
//
// A panic in fn stops the workers from claiming further calls. Once the
// calls in flight have returned, ForEach re-raises the first panic value
// on the calling goroutine, where the caller's recover sees it.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	b := currentBinding()
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		panicV any
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			if b.col != nil || b.tel != nil {
				detach := setBinding(goid(), b)
				defer detach()
			}
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicV = r })
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		panic(panicV)
	}
}

// CollectStats runs fn with a fresh collector bound to the calling
// goroutine and returns the collector. Every engine fn creates — directly
// or on ForEach workers, which carry the binding — is collected.
func CollectStats(fn func()) *StatsCollector {
	c := NewStatsCollector()
	detach := c.Bind()
	defer detach()
	fn()
	return c
}
