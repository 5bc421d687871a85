package sim

import "testing"

// BenchmarkEventDispatch measures the raw event-queue throughput: the
// floor under every simulated cycle cost.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	for i := 0; i < b.N; i++ {
		e.After(1, func() { n++ })
		e.Run()
	}
	if n != b.N {
		b.Fatalf("dispatched %d, want %d", n, b.N)
	}
}

// BenchmarkProcSwitch measures a full park/resume round trip — the fiber
// context-switch cost of the cooperative scheduler.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcHandoff measures a cross-process hand-off: two processes
// take turns at alternate cycles, so every wakeup resumes the other one
// (ProcSwitch only ever wakes itself, which costs no switch at all).
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	for start, name := range []string{"ping", "pong"} {
		e.GoAt(Time(start), name, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(2)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if st := e.Stats(); st.ProcSwitches < int64(b.N/2*2) {
		b.Fatalf("%d hand-offs for %d wakeups", st.ProcSwitches, b.N/2*2)
	}
}

// BenchmarkQueueSendRecv measures the mailbox hot path.
func BenchmarkQueueSendRecv(b *testing.B) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Go("recv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Recv(p)
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Send(i)
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}
