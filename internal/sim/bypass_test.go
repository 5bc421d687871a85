package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSleepEqualTimeEventRunsFirst: an event already scheduled at exactly
// now+d has a lower sequence number than the sleeper's wakeup, so it runs
// before the sleeper resumes; an event one cycle later runs after it.
func TestSleepEqualTimeEventRunsFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	e.Go("p", func(p *Proc) {
		e.At(p.Now()+5, note("equal"))
		p.Sleep(5)
		order = append(order, fmt.Sprintf("p@%d", p.Now()))
		e.At(p.Now()+6, note("later"))
		p.Sleep(5)
		order = append(order, fmt.Sprintf("p@%d", p.Now()))
	})
	e.Run()
	if got, want := strings.Join(order, ","), "equal,p@5,p@10,later"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	// start, equal, wake@5, wake@10, later: every dispatch counted once
	// whether or not it went through the heap.
	if st := e.Stats(); st.Events != 5 || st.ProcSwitches != 1 || st.HeapHighWater != 2 {
		t.Fatalf("stats = %+v, want Events 5, ProcSwitches 1, HeapHighWater 2", st)
	}
}

// TestSleepAcrossRunUntilDeadline: a sleep that crosses the RunUntil
// deadline leaves the clock at the deadline with the sleeper parked, and
// the sleeper resumes at its wakeup time on the next Run.
func TestSleepAcrossRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(100)
			woke = append(woke, p.Now())
		}
	})
	e.RunUntil(250)
	if e.Now() != 250 || !reflect.DeepEqual(woke, []Time{100, 200}) {
		t.Fatalf("after RunUntil(250): now %d, woke %v; want 250, [100 200]", e.Now(), woke)
	}
	if got := strings.Join(e.ParkedProcs(), ","); got != "p" {
		t.Fatalf("parked = %q, want p", got)
	}
	e.Run()
	if e.Now() != 400 || !reflect.DeepEqual(woke, []Time{100, 200, 300, 400}) {
		t.Fatalf("after Run: now %d, woke %v; want 400, [100 200 300 400]", e.Now(), woke)
	}
}

// TestSleepAfterStopParks: a process that stops the engine and then
// sleeps does not run on: Run returns with the clock unmoved, and a later
// Run resumes the process at its wakeup time.
func TestSleepAfterStopParks(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Go("p", func(p *Proc) {
		e.Stop()
		p.Sleep(10)
		woke = append(woke, p.Now())
		p.Sleep(10)
		woke = append(woke, p.Now())
	})
	e.Run()
	if e.Now() != 0 || len(woke) != 0 {
		t.Fatalf("after stopped Run: now %d, woke %v; want 0, []", e.Now(), woke)
	}
	if got := strings.Join(e.ParkedProcs(), ","); got != "p" {
		t.Fatalf("parked = %q, want p", got)
	}
	e.Run()
	if e.Now() != 20 || !reflect.DeepEqual(woke, []Time{10, 20}) {
		t.Fatalf("after second Run: now %d, woke %v; want 20, [10 20]", e.Now(), woke)
	}
}

// crossWindowRun runs two partitions with lookahead 10: a sleeper on
// partition 1 naps 25 cycles at a time, across every window bound, while
// partition 0 sends it a message every 10 cycles. Dispatching a nap past
// the window bound would put the sleeper's clock ahead of messages still
// due at the barrier, which panics (lookahead violated).
func crossWindowRun() ([]string, EngineStats) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("sleeper")
	var log []string
	var got []Time
	e.GoOn(0, "sender", func(p *Proc) {
		for i := 0; i < 30; i++ {
			p.Sleep(10)
			at := p.Now() + 10
			p.SendTo(p1, 10, func() { got = append(got, at) })
		}
	})
	e.GoOn(p1, "napper", func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(25)
			log = append(log, fmt.Sprintf("nap@%d msgs=%d", p.Now(), len(got)))
		}
	})
	e.Run()
	e.Close()
	log = append(log, fmt.Sprintf("msgs %v", got))
	return log, e.Stats()
}

// TestSleepAcrossWindowBoundIsNotBypassed: on a partitioned engine a
// sleep past the window bound waits for the barrier, and a repeat run is
// byte-identical.
func TestSleepAcrossWindowBoundIsNotBypassed(t *testing.T) {
	log1, st1 := crossWindowRun()
	log2, st2 := crossWindowRun()
	if !reflect.DeepEqual(log1, log2) || !reflect.DeepEqual(st1, st2) {
		t.Fatalf("repeat run differs:\n%v\n%+v\n%v\n%+v", log1, st1, log2, st2)
	}
	if len(log1) != 13 || log1[0] != "nap@25 msgs=1" || log1[11] != "nap@300 msgs=28" {
		t.Fatalf("log = %v", log1)
	}
}

// TestDeferredSleepDuringClose: a body unwound by Close that sleeps in a
// deferred call runs the heap path as it always has — the sleep is
// cut short by the unwinding, the remaining deferred calls still run,
// and Close returns.
func TestDeferredSleepDuringClose(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "never")
	var trail []string
	e.Go("p", func(p *Proc) {
		defer func() { trail = append(trail, "outer") }()
		defer func() {
			trail = append(trail, "before sleep")
			p.Sleep(7)
			trail = append(trail, "after sleep")
		}()
		q.Recv(p)
	})
	e.Run()
	e.Close()
	if got, want := strings.Join(trail, ","), "before sleep,outer"; got != want {
		t.Fatalf("trail = %s, want %s", got, want)
	}
	if st := e.Stats(); e.Now() != 7 || st.Events != 2 || st.ProcSwitches != 2 {
		t.Fatalf("now %d, stats %+v; want now 7, Events 2, ProcSwitches 2", e.Now(), st)
	}
}
