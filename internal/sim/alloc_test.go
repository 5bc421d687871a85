package sim

import "testing"

// steadyAllocs runs e in 1000-cycle RunUntil steps — one to grow every
// wait list, heap and buffer to its working size, then a measured batch —
// and returns the allocations per step.
func steadyAllocs(e *Engine) float64 {
	var deadline Time
	step := func() {
		deadline += 1000
		e.RunUntil(deadline)
	}
	step()
	return testing.AllocsPerRun(20, step)
}

// TestQueueSendRecvAllocs: a receiver parked on a queue and a sender that
// sends once a cycle allocate nothing in steady state.
func TestQueueSendRecvAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	q := NewQueue[int](e, "q")
	n := 0
	e.Go("recv", func(p *Proc) {
		for {
			n += q.Recv(p)
		}
	})
	e.Go("send", func(p *Proc) {
		for {
			q.Send(1)
			p.Sleep(1)
		}
	})
	if a := steadyAllocs(e); a != 0 {
		t.Fatalf("Queue send/recv: %.1f allocs per 1000 cycles, want 0", a)
	}
	if n < 1000 {
		t.Fatalf("only %d items received", n)
	}
}

// TestResourceContendedAllocs: three processes contending for one
// resource, so every Release hands it to a queued waiter, allocate
// nothing in steady state.
func TestResourceContendedAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "cpu")
	n := 0
	for _, name := range []string{"a", "b", "c"} {
		e.Go(name, func(p *Proc) {
			for {
				r.Exec(p, 3)
				n++
			}
		})
	}
	if a := steadyAllocs(e); a != 0 {
		t.Fatalf("contended Resource: %.1f allocs per 1000 cycles, want 0", a)
	}
	if st := e.Stats(); n < 300 || st.ProcSwitches < int64(n) {
		t.Fatalf("not contended: %d execs, %d switches", n, st.ProcSwitches)
	}
}

// TestCondWaitBroadcastAllocs: waiters re-parking on a cond after every
// broadcast allocate nothing in steady state.
func TestCondWaitBroadcastAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := NewCond(e)
	n := 0
	for _, name := range []string{"a", "b", "c"} {
		e.Go(name, func(p *Proc) {
			for {
				c.Wait(p)
				n++
			}
		})
	}
	e.Go("tick", func(p *Proc) {
		for {
			p.Sleep(10)
			c.Broadcast()
		}
	})
	if a := steadyAllocs(e); a != 0 {
		t.Fatalf("Cond wait/broadcast: %.1f allocs per 1000 cycles, want 0", a)
	}
	if n < 300 {
		t.Fatalf("only %d wakeups", n)
	}
}

// TestFIFOBacklogStaysBounded: a million push/pop pairs over a constant
// backlog of three never drain the list, so only compaction keeps its
// array from growing with the traffic.
func TestFIFOBacklogStaysBounded(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	for ; next < 3; next++ {
		f.push(next)
	}
	for i := 0; i < 1_000_000; i++ {
		f.push(next)
		next++
		if v := f.pop(); v != want {
			t.Fatalf("pop %d = %d, want %d", i, v, want)
		}
		want++
		if f.len() != 3 {
			t.Fatalf("len = %d after %d pairs, want 3", f.len(), i)
		}
	}
	if c := cap(f.buf); c > 8 {
		t.Fatalf("cap = %d with a backlog of 3, want <= 8", c)
	}
	for f.len() > 0 {
		if v := f.pop(); v != want {
			t.Fatalf("drain pop = %d, want %d", v, want)
		}
		want++
	}
	if f.head != 0 || len(f.buf) != 0 {
		t.Fatalf("drained fifo: head %d, len %d; want rewound to 0, 0", f.head, len(f.buf))
	}
}
