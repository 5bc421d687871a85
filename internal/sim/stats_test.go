package sim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// runSmallSim drives a deterministic two-process simulation on a fresh
// engine and returns the engine.
func runSmallSim() *Engine {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(5)
			q.Send(i)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Recv(p)
			p.Sleep(3)
		}
	})
	e.Run()
	return e
}

func TestEngineStatsCounters(t *testing.T) {
	e := runSmallSim()
	s := e.Stats()
	if s.Engines != 1 {
		t.Errorf("Engines = %d, want 1", s.Engines)
	}
	if s.Events == 0 {
		t.Error("Events = 0, want > 0 after a run")
	}
	if s.ProcsSpawned != 2 {
		t.Errorf("ProcsSpawned = %d, want 2", s.ProcsSpawned)
	}
	if s.ProcSwitches == 0 {
		t.Error("ProcSwitches = 0, want > 0 (producer and consumer hand off)")
	}
	if s.HeapHighWater < 2 {
		t.Errorf("HeapHighWater = %d, want >= 2", s.HeapHighWater)
	}
	if s.Cycles != int64(e.Now()) {
		t.Errorf("Cycles = %d, want final clock %d", s.Cycles, e.Now())
	}
}

// TestEngineStatsDeterministic: two identical runs produce identical
// counters — EngineStats are part of the reproducible output surface.
func TestEngineStatsDeterministic(t *testing.T) {
	a := runSmallSim().Stats()
	b := runSmallSim().Stats()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across identical runs:\n  %+v\n  %+v", a, b)
	}
}

func TestStatsCollectorCollects(t *testing.T) {
	c := CollectStats(func() {
		runSmallSim()
		runSmallSim()
	})
	per := c.PerEngine()
	if len(per) != 2 {
		t.Fatalf("collected %d engines, want 2", len(per))
	}
	if !reflect.DeepEqual(per[0], per[1]) {
		t.Errorf("identical runs collected different stats: %+v vs %+v", per[0], per[1])
	}
	total := c.Snapshot()
	if total.Engines != 2 || total.Events != per[0].Events*2 {
		t.Errorf("snapshot %+v does not sum per-engine stats %+v", total, per[0])
	}
	if total.HeapHighWater != per[0].HeapHighWater {
		t.Errorf("HeapHighWater = %d, want max %d, not sum", total.HeapHighWater, per[0].HeapHighWater)
	}
}

// TestCollectorScoping: engines created outside the collect region, or on
// an unbound goroutine, are not collected; nested bindings restore.
func TestCollectorScoping(t *testing.T) {
	runSmallSim() // unbound: collected nowhere
	outer := NewStatsCollector()
	detach := outer.Bind()
	runSmallSim()
	inner := CollectStats(func() { runSmallSim() }) // nested: shadows outer
	runSmallSim()
	detach()
	runSmallSim() // after detach: collected nowhere

	if n := len(outer.PerEngine()); n != 2 {
		t.Errorf("outer collected %d engines, want 2", n)
	}
	if n := len(inner.PerEngine()); n != 1 {
		t.Errorf("inner collected %d engines, want 1", n)
	}
}

// TestForEachPropagatesStatsToWorkers: ForEach carries the caller's
// binding onto its worker goroutines.
func TestForEachPropagatesStatsToWorkers(t *testing.T) {
	c := NewStatsCollector()
	detach := c.Bind()
	defer detach()

	ForEach(4, 4, func(int) { runSmallSim() })
	if n := registry.live.Load(); n != 1 {
		t.Errorf("%d goroutines bound after ForEach, want 1 (the caller)", n)
	}
	if n := len(c.PerEngine()); n != 4 {
		t.Errorf("collected %d engines from workers, want 4", n)
	}
	total := c.Snapshot()
	one := runSmallSim().Stats()
	want := EngineStats{
		Engines: 4, Events: one.Events * 4, ProcSwitches: one.ProcSwitches * 4,
		ProcsSpawned: one.ProcsSpawned * 4, HeapHighWater: one.HeapHighWater,
		Cycles: one.Cycles * 4,
	}
	if !reflect.DeepEqual(total, want) {
		t.Errorf("snapshot across workers = %+v, want %+v", total, want)
	}
}

// TestForEachNoBinding: a ForEach with nothing bound leaves its workers
// unbound, and the registry stays empty.
func TestForEachNoBinding(t *testing.T) {
	ForEach(1, 1, func(int) {
		runSmallSim()
		if b := currentBinding(); b.col != nil || b.tel != nil {
			t.Errorf("worker bound to %+v with nothing bound on the caller", b)
		}
	})
}

// TestForEachCallsEachIndexOnce: every index runs exactly once, at most
// workers calls are in flight, and ForEach returns only after all of them.
func TestForEachCallsEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, wantMax int }{
		{0, 4, 0}, {1, 4, 1}, {7, 0, 1}, {7, 3, 3}, {50, 4, 4},
	} {
		calls := make([]atomic.Int32, tc.n)
		var inFlight, maxInFlight atomic.Int32
		ForEach(tc.n, tc.workers, func(i int) {
			cur := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			calls[i].Add(1)
			inFlight.Add(-1)
		})
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", tc.n, tc.workers, i, got)
			}
		}
		if got := maxInFlight.Load(); int(got) > tc.wantMax || (tc.n > 0 && got < 1) {
			t.Errorf("n=%d workers=%d: %d calls in flight, want 1..%d", tc.n, tc.workers, got, tc.wantMax)
		}
		if got := inFlight.Load(); got != 0 {
			t.Errorf("n=%d workers=%d: returned with %d calls still running", tc.n, tc.workers, got)
		}
	}
}

// TestForEachReraisesPanicOnCaller: a panic in fn reaches the caller's
// recover with its original value, after the other workers have stopped.
func TestForEachReraisesPanicOnCaller(t *testing.T) {
	var running atomic.Int32
	got := func() (v any) {
		defer func() { v = recover() }()
		ForEach(20, 4, func(i int) {
			running.Add(1)
			defer running.Add(-1)
			if i == 5 {
				panic("unit 5 failed")
			}
			time.Sleep(100 * time.Microsecond)
		})
		return nil
	}()
	if got != "unit 5 failed" {
		t.Fatalf("recovered %v, want the worker's panic value", got)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d calls still running after ForEach re-panicked", n)
	}
}
