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

// BenchmarkProcSwitch measures a lone process sleeping: with nothing else
// pending, every Sleep is a self-wake dispatched on the spot without the
// event heap (see Proc.Sleep). SleepQueued keeps the heap round trip's
// number.
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

// BenchmarkSleepQueued measures a self-wake through the event heap: a
// callback re-arming itself every cycle is always pending at the
// sleeper's wakeup time with a lower sequence number, so each Sleep pushes
// its wakeup, the callback runs, and the wakeup pops back to the sleeper
// (no hand-off; ProcHandoff measures that).
func BenchmarkSleepQueued(b *testing.B) {
	e := NewEngine()
	done := false
	var tick func()
	tick = func() {
		if !done {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
		done = true
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if st := e.Stats(); st.ProcSwitches != 1 || st.Events < int64(2*b.N) {
		b.Fatalf("%d events, %d switches for %d sleeps; want >= 2 per sleep, 1 switch", st.Events, st.ProcSwitches, b.N)
	}
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
