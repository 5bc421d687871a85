package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestAmbientCallsPanicOnRunningMultiPartitionEngine: while a
// multi-partition engine runs there is no ambient partition, so every
// partition-ambiguous Engine method refuses loudly and names the explicit
// form to use instead.
func TestAmbientCallsPanicOnRunningMultiPartitionEngine(t *testing.T) {
	calls := []struct {
		name, want string
		call       func(e *Engine)
	}{
		{"At", "Engine.Part(id).At", func(e *Engine) { e.At(5, func() {}) }},
		{"After", "Engine.Part(id).After", func(e *Engine) { e.After(5, func() {}) }},
		{"Now", "Proc.Now or Engine.Part(id).Now", func(e *Engine) { e.Now() }},
		{"Go", "Engine.Part(id).Go", func(e *Engine) { e.Go("x", func(*Proc) {}) }},
		{"GoAt", "Engine.Part(id).Go", func(e *Engine) { e.GoAt(5, "x", func(*Proc) {}) }},
		{"Stop", "Engine.Part(id).Stop", func(e *Engine) { e.Stop() }},
		{"SendTo", "Proc.SendTo or Engine.Part(id).SendTo", func(e *Engine) { e.SendTo(0, 50, func() {}) }},
		{"GoOn", "Engine.Part(id).Go", func(e *Engine) { e.GoOn(1, "x", func(*Proc) {}) }},
	}
	for _, c := range calls {
		e := NewEngine()
		e.SetLookahead(10)
		p1 := e.AddPartition("p1")
		var got any
		// From a callback and from a process: neither has an ambient
		// partition.
		e.Part(p1).At(3, func() {
			defer func() { got = recover() }()
			c.call(e)
		})
		var gotProc any
		e.GoOn(p1, "caller", func(p *Proc) {
			defer func() { gotProc = recover() }()
			p.Sleep(7)
			c.call(e)
		})
		e.Run()
		for where, r := range map[string]any{"callback": got, "process": gotProc} {
			msg := fmt.Sprint(r)
			if r == nil || !strings.Contains(msg, "multi-partition") || !strings.Contains(msg, c.want) {
				t.Errorf("Engine.%s from a %s: recovered %v, want a panic naming %q", c.name, where, r, c.want)
			}
		}
	}
}

// TestAmbientCallsAllowedAtSetupAndOnSingleEngine: the ambient methods
// keep their meaning before a multi-partition engine runs (partition 0;
// Now the furthest clock) and on a single-partition engine at any time.
func TestAmbientCallsAllowedAtSetupAndOnSingleEngine(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	var order []string
	e.At(4, func() { order = append(order, fmt.Sprintf("root@%d", e.Part(0).Now())) })
	e.SendTo(p1, 6, func() { order = append(order, fmt.Sprintf("p1@%d", e.Part(p1).Now())) })
	e.GoOn(p1, "sleeper", func(p *Proc) { p.Sleep(20) })
	e.Run()
	if got := strings.Join(order, " "); got != "root@4 p1@6" {
		t.Fatalf("setup-time ambient schedule = %q", got)
	}
	if e.Now() != 20 {
		t.Fatalf("Now after run = %d, want the furthest clock 20", e.Now())
	}

	s := NewEngine()
	var at Time
	s.Go("p", func(p *Proc) {
		p.Sleep(3)
		s.After(2, func() { at = s.Now() })
		s.SendTo(0, 4, func() {})
	})
	s.Run()
	if at != 5 {
		t.Fatalf("single-partition After fired at %d, want 5", at)
	}
}

// TestPartHandleSchedulesOnItsPartition: Part.At/After/SendTo/Go act on
// the named partition and read its clock, from a callback running there.
func TestPartHandleSchedulesOnItsPartition(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1, p2 := e.AddPartition("p1"), e.AddPartition("p2")
	h1 := e.Part(p1)
	if h1.ID() != p1 {
		t.Fatalf("Part(%d).ID() = %d", p1, h1.ID())
	}
	var log []string
	note := func(h Part, what string) { log = append(log, fmt.Sprintf("%s p%d@%d", what, h.ID(), h.Now())) }
	h1.At(10, func() {
		note(h1, "at")
		h1.After(5, func() { note(h1, "after") })
		h1.SendTo(p2, 100, func() { note(e.Part(p2), "msg") })
		h1.Go("spawned", func(p *Proc) {
			p.Sleep(1)
			note(h1, fmt.Sprintf("proc%d", p.Part()))
		})
	})
	e.Run()
	want := "at p1@10 proc1 p1@11 after p1@15 msg p2@110"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
	if st := e.Stats(); st.OutboxMsgs != 1 {
		t.Fatalf("cross-partition message not routed through the outbox: %+v", st)
	}
}

// TestPartitionedRunAllocs pins that a multi-partition run allocates per
// call, not per quantum window: each RunUntil below runs a hundred-plus
// partition-windows with cross-partition messages, and the count stays a small
// constant. A per-window (or per-message) goroutine lookup — whose stack
// buffer escapes — would scale with the window count and fail here.
func TestPartitionedRunAllocs(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	parts := []PartID{e.AddPartition("a"), e.AddPartition("b")}
	for i, id := range parts {
		other := e.Part(parts[1-i])
		recv := func() { _ = other.Now() }
		e.GoOn(id, "pinger", func(p *Proc) {
			for {
				p.Sleep(10)
				p.SendTo(other.ID(), 10, recv)
			}
		})
	}
	defer e.Close()
	var deadline Time
	step := func() {
		deadline += 1000
		e.RunUntil(deadline)
	}
	step() // grow heaps and outboxes to steady state
	before := e.Stats().Windows
	const runs = 20
	allocs := testing.AllocsPerRun(runs, step)
	windows := (e.Stats().Windows - before) / (runs + 1)
	if windows < 100 {
		t.Fatalf("scenario too small: %d partition-windows per run", windows)
	}
	if allocs > 4 {
		t.Fatalf("partitioned RunUntil allocates %.1f times per call over %d partition-windows; want <= 4",
			allocs, windows)
	}
}

// TestCloseReleasesParkedProcs: Close ends every goroutine the engine
// still holds — processes parked on a wakeup that never comes and
// processes that never started — in spawn order, running their deferred
// calls, and the engine stays readable afterwards.
func TestCloseReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	q := NewQueue[int](e, "never")
	var deferred []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			defer func() { deferred = append(deferred, name) }()
			q.Recv(p) // nothing is ever sent
		})
	}
	e.Run()
	e.GoAt(50, "unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	if got := strings.Join(e.ParkedProcs(), ","); got != "a,b,c" {
		t.Fatalf("parked before Close = %q", got)
	}
	e.Close()
	e.Close() // idempotent
	if got := strings.Join(deferred, ","); got != "a,b,c" {
		t.Fatalf("deferred calls ran as %q, want spawn order a,b,c", got)
	}
	if n := len(e.ParkedProcs()); n != 0 {
		t.Fatalf("%d processes still registered after Close", n)
	}
	if st := e.Stats(); st.ProcsSpawned != 4 {
		t.Fatalf("stats lost after Close: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Close left %d goroutines behind", after-before)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("spawn on a closed engine did not panic")
		}
	}()
	e.Go("late", func(*Proc) {})
}

// TestCloseAfterRunUntilReleasesRecv: RunUntil stops with a process
// parked mid-Queue.Recv, its item still in flight; Close unwinds that
// process from inside Recv — running its deferred call, delivering
// nothing — and drops the pending send.
func TestCloseAfterRunUntilReleasesRecv(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	q := NewQueue[int](e, "late")
	var got []int
	released := false
	e.Go("rx", func(p *Proc) {
		defer func() { released = true }()
		for {
			got = append(got, q.Recv(p))
		}
	})
	e.At(10, func() { q.Send(1) })
	e.At(500, func() { q.Send(2) })
	e.RunUntil(100)
	if parked := strings.Join(e.ParkedProcs(), ","); parked != "rx" || released {
		t.Fatalf("after RunUntil: parked %q, released %v", parked, released)
	}
	e.Close()
	if !released || len(got) != 1 || got[0] != 1 {
		t.Fatalf("after Close: released %v, received %v; want true, [1]", released, got)
	}
	if !e.Idle() || len(e.ParkedProcs()) != 0 {
		t.Fatalf("Close left work behind: idle %v, parked %v", e.Idle(), e.ParkedProcs())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Close left %d goroutines behind", after-before)
	}
}

// TestCloseOnPartitionedEngine releases fibers on every partition.
func TestCloseOnPartitionedEngine(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	q0, q1 := NewQueue[int](e, "q0"), NewQueue[int](e, "q1")
	e.GoOn(0, "w0", func(p *Proc) { q0.Recv(p) })
	e.GoOn(p1, "w1", func(p *Proc) { q1.Recv(p) })
	e.Run()
	if n := len(e.ParkedProcs()); n != 2 {
		t.Fatalf("%d parked, want 2", n)
	}
	e.Close()
	if n := len(e.ParkedProcs()); n != 0 {
		t.Fatalf("%d parked after Close", n)
	}
}
