package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// partitionedRun builds a 4-partition engine running a seeded-random
// workload — partition-local fiber chatter through queues plus
// cross-partition SendTo messages at randomized legal delays — and returns
// its complete observable output: per-partition logs merged in partition
// order, the engine stats, and the parked-proc listing. The workload is a
// pure function of the seed, so any two runs of it must return identical
// values, whichever goroutine runs them.
func partitionedRun(t *testing.T, seed int64, deadline Time) ([]string, EngineStats, []string) {
	t.Helper()
	const lookahead = 100
	e := NewEngine()
	e.SetLookahead(lookahead)
	parts := []PartID{0, e.AddPartition("p1"), e.AddPartition("p2"), e.AddPartition("p3")}

	logs := make([][]string, len(parts))
	inboxes := make([]*Queue[int], len(parts))
	for i, id := range parts {
		inboxes[id] = NewQueue[int](e, fmt.Sprintf("inbox%d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	for i, id := range parts {
		id := id
		li := i
		// One consumer per partition drains cross-partition messages until
		// they dry up; it logs every receipt with its local timestamp.
		e.GoOn(id, fmt.Sprintf("consumer%d", i), func(p *Proc) {
			for {
				v, ok := inboxes[id].RecvTimeout(p, 4*lookahead)
				if !ok {
					return
				}
				logs[li] = append(logs[li], fmt.Sprintf("p%d recv %d @%d", li, v, p.Now()))
			}
		})
		// Chatter fibers sleep pseudo-random local amounts and fire
		// cross-partition messages with delays >= lookahead. All rand
		// draws happen at setup so the schedule is fixed before Run.
		for f := 0; f < 3; f++ {
			f := f
			type step struct {
				sleep Time
				to    PartID
				delay Time
				val   int
			}
			steps := make([]step, 8)
			for s := range steps {
				steps[s] = step{
					sleep: Time(1 + rng.Intn(60)),
					to:    parts[rng.Intn(len(parts))],
					delay: lookahead + Time(rng.Intn(80)),
					val:   rng.Intn(1000),
				}
			}
			e.GoOn(id, fmt.Sprintf("chat%d.%d", i, f), func(p *Proc) {
				for s, st := range steps {
					p.Sleep(st.sleep)
					logs[li] = append(logs[li], fmt.Sprintf("p%d chat%d step%d @%d", li, f, s, p.Now()))
					to, val := st.to, st.val
					p.SendTo(to, st.delay, func() { inboxes[to].Send(val) })
				}
			})
		}
	}
	if deadline > 0 {
		e.RunUntil(deadline)
	} else {
		e.Run()
	}
	var merged []string
	for _, l := range logs {
		merged = append(merged, l...)
	}
	return merged, e.Stats(), e.ParkedProcs()
}

// partOut is one partitionedRun's complete observable output.
type partOut struct {
	log    []string
	stats  EngineStats
	parked []string
}

// runOnWorkers runs partitionedRun(seed, deadline) on n goroutines at
// once, the way core.RunAll -j and concurrent serve requests run engines,
// and returns every run's output. Engines share no mutable state, so each
// must match a run on the calling goroutine; under -race this also
// checks that they share nothing.
func runOnWorkers(t *testing.T, n int, seed int64, deadline Time) []partOut {
	t.Helper()
	out := make([]partOut, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &out[i]
			o.log, o.stats, o.parked = partitionedRun(t, seed, deadline)
		}()
	}
	wg.Wait()
	return out
}

// TestPartitionedDeterministicAcrossWorkers is the core byte-identity
// property: the quantum algorithm's output is a function of the workload
// alone, equal on a repeat run and on runs made concurrently from worker
// goroutines.
func TestPartitionedDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		base, baseStats, baseParked := partitionedRun(t, seed, 0)
		if len(base) == 0 {
			t.Fatalf("seed %d produced no output", seed)
		}
		again, againStats, againParked := partitionedRun(t, seed, 0)
		runs := append(runOnWorkers(t, 4, seed, 0), partOut{again, againStats, againParked})
		for w, got := range runs {
			if !reflect.DeepEqual(base, got.log) {
				t.Fatalf("seed %d: run %d log diverged\nfirst: %v\nrun:   %v", seed, w, base, got.log)
			}
			if !reflect.DeepEqual(baseStats, got.stats) {
				t.Fatalf("seed %d: run %d stats %+v != %+v", seed, w, got.stats, baseStats)
			}
			if !reflect.DeepEqual(baseParked, got.parked) {
				t.Fatalf("seed %d: run %d parked %v != %v", seed, w, got.parked, baseParked)
			}
		}
	}
}

// TestPartitionedRunUntilAcrossWorkers checks the deadline semantics under
// the quantum loop: identical truncated output on every run, including
// runs made concurrently from worker goroutines, and all partition clocks
// advanced to the deadline.
func TestPartitionedRunUntilAcrossWorkers(t *testing.T) {
	const seed, deadline = 11, 250
	base, baseStats, baseParked := partitionedRun(t, seed, deadline)
	for w, got := range runOnWorkers(t, 2, seed, deadline) {
		if !reflect.DeepEqual(base, got.log) {
			t.Fatalf("run %d RunUntil log diverged\nfirst: %v\nrun:   %v", w, base, got.log)
		}
		if !reflect.DeepEqual(baseStats, got.stats) {
			t.Fatalf("run %d RunUntil stats %+v != %+v", w, got.stats, baseStats)
		}
		if !reflect.DeepEqual(baseParked, got.parked) {
			t.Fatalf("run %d RunUntil parked %v != %v", w, got.parked, baseParked)
		}
	}
	if baseStats.Cycles != deadline {
		t.Fatalf("RunUntil left clock at %d, want deadline %d", baseStats.Cycles, deadline)
	}
}

// TestPartitionedRunUntilThenRun resumes a deadline-bounded partitioned
// run and checks the final output equals an unbounded run.
func TestPartitionedRunUntilThenRun(t *testing.T) {
	full, fullStats, _ := partitionedRun(t, 3, 0)

	// Replay the same workload but split the execution at a deadline.
	// partitionedRun can't express that directly, so rebuild inline.
	e := NewEngine()
	e.SetLookahead(50)
	p1 := e.AddPartition("p1")
	var log []string
	e.GoOn(p1, "walker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(30)
			log = append(log, fmt.Sprintf("step%d @%d", i, p.Now()))
		}
	})
	e.RunUntil(100)
	n := len(log)
	if n == 0 || n == 10 {
		t.Fatalf("deadline split ineffective: %d steps before deadline", n)
	}
	e.Run()
	if len(log) != 10 {
		t.Fatalf("resume incomplete: %d steps", len(log))
	}
	_ = full
	_ = fullStats
}

// TestPartitionedRunUntilPanicsOnTimeRegression is the deadline-regression
// panic parity check: a multi-partition engine must fail exactly like the
// sequential one when an event is behind a partition clock.
func TestPartitionedRunUntilPanicsOnTimeRegression(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	e.AddPartition("p1")
	e.parts[1].now = 100
	e.parts[1].queue.push(event{at: 50, seq: 1, fn: func() {}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on time regression")
		}
		if !strings.Contains(fmt.Sprint(r), "time went backwards") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	e.RunUntil(200)
}

// TestPartitionedRunPanicsOnTimeRegression mirrors the Run variant.
func TestPartitionedRunPanicsOnTimeRegression(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	e.AddPartition("p1")
	e.parts[1].now = 100
	e.parts[1].queue.push(event{at: 50, seq: 1, fn: func() {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	e.Run()
}

// TestSendToBelowLookaheadPanics: a cross-partition delay below the
// lookahead would let a message land inside a window another partition is
// concurrently executing — the engine must refuse it loudly.
func TestSendToBelowLookaheadPanics(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1 := e.AddPartition("p1")
	p2 := e.AddPartition("p2")
	var got any
	e.GoOn(p1, "bad", func(p *Proc) {
		defer func() { got = recover() }()
		p.Sleep(1)
		p.SendTo(p2, 50, func() {})
	})
	e.Run()
	if got == nil {
		t.Fatal("expected SendTo below lookahead to panic")
	}
	if !strings.Contains(fmt.Sprint(got), "lookahead") {
		t.Fatalf("wrong panic: %v", got)
	}
}

// TestSendToOwnPartitionIsAfter: local sends have no lookahead floor.
func TestSendToOwnPartitionIsAfter(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1 := e.AddPartition("p1")
	var at Time
	e.GoOn(p1, "self", func(p *Proc) {
		p.Sleep(5)
		p.SendTo(p1, 3, func() { at = e.Part(p1).Now() })
		p.Sleep(50)
	})
	e.Run()
	if at != 8 {
		t.Fatalf("local SendTo fired at %d, want 8", at)
	}
}

// TestSendToAtSetupSeedsRemotePartition: before Run, SendTo lands directly
// on the target partition with no lookahead requirement (initial topology
// wiring).
func TestSendToAtSetupSeedsRemotePartition(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1 := e.AddPartition("p1")
	fired := false
	e.SendTo(p1, 5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("setup-time SendTo never fired")
	}
}

// TestPartitionedStop: Stop from inside a fiber halts the whole engine at
// a deterministic point (the quantum barrier) and Run resumes.
func TestPartitionedStop(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	steps := 0
	e.GoOn(p1, "stopper", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(5)
			steps++
			if steps == 3 {
				e.Part(p.Part()).Stop()
				// The fiber parks; the engine halts at the barrier with
				// its wakeup still pending, so Run resumes it.
			}
		}
	})
	e.Run()
	if steps < 3 || steps == 10 {
		t.Fatalf("Stop ineffective: %d steps", steps)
	}
	e.Run()
	if steps != 10 {
		t.Fatalf("resume after Stop incomplete: %d steps", steps)
	}
}

// TestProcPart reports the partition a fiber lives on.
func TestProcPart(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	var got []PartID
	e.Go("root", func(p *Proc) { got = append(got, p.Part()) })
	e.GoOn(p1, "one", func(p *Proc) { got = append(got, p.Part()) })
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != p1 {
		t.Fatalf("Part() = %v, want [0 %d]", got, p1)
	}
}

// TestGoOnCrossPartitionDuringRunPanics: run-time spawns must stay on the
// spawner's own partition.
func TestGoOnCrossPartitionDuringRunPanics(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	p2 := e.AddPartition("p2")
	var got any
	e.GoOn(p1, "spawner", func(p *Proc) {
		defer func() { got = recover() }()
		p.Sleep(1)
		e.GoOn(p2, "illegal", func(p *Proc) {})
	})
	e.Run()
	if got == nil {
		t.Fatal("expected cross-partition GoOn during run to panic")
	}
}

// TestBindParallelism: the kept entry point is a no-op. It changes
// nothing about engines built while it is bound, its detach leaves an
// outer binding alone, and it binds no stats collector, so a worker
// goroutine that calls only BindParallelism drops the caller's collector
// while one that calls InheritStats' bind keeps it.
func TestBindParallelism(t *testing.T) {
	want, _, _ := partitionedRun(t, 5, 0)
	detach := BindParallelism(4)
	got, _, _ := partitionedRun(t, 5, 0)
	detach()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run under BindParallelism(4) diverged:\n%v\n%v", got, want)
	}

	col := CollectStats(func() {
		inner := BindParallelism(2)
		NewEngine()
		inner()
		NewEngine()

		bind := InheritStats()
		done := make(chan struct{})
		go func() {
			defer close(done)
			det := BindParallelism(4)
			defer det()
			NewEngine() // not collected: nothing bound on this goroutine
		}()
		<-done
		done = make(chan struct{})
		go func() {
			defer close(done)
			det := bind()
			defer det()
			NewEngine()
		}()
		<-done
	})
	if n := len(col.PerEngine()); n != 3 {
		t.Fatalf("collected %d engines, want 3 (two on the caller, one via InheritStats)", n)
	}
}

// TestPartitionedEngineStatsAcrossWorkersMatchSerialMerge: engines run
// on worker goroutines that inherit the caller's collector fold into the
// same snapshot as merging the serial runs' stats one by one.
func TestPartitionedEngineStatsAcrossWorkersMatchSerialMerge(t *testing.T) {
	seeds := []int64{99, 100, 101}
	var want EngineStats
	for _, seed := range seeds {
		_, st, _ := partitionedRun(t, seed, 0)
		if st.Events == 0 || st.ProcsSpawned == 0 {
			t.Fatalf("implausible stats: %+v", st)
		}
		want.Merge(st)
	}
	col := CollectStats(func() {
		bind := InheritStats()
		var wg sync.WaitGroup
		for _, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				detach := bind()
				defer detach()
				partitionedRun(t, seed, 0)
			}()
		}
		wg.Wait()
	})
	if got := col.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("worker snapshot %+v != serial merge %+v", got, want)
	}
}
