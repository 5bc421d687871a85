// Conservative partitioned discrete-event execution (PDES).
//
// AddPartition splits an engine into logical processes, each a shard with
// its own event heap and local clock. Run then proceeds in quantum
// windows: with t = the earliest pending event across all partitions and
// L = the lookahead (the minimum cross-partition latency, SetLookahead),
// every partition may safely dispatch its events in [t, t+L) without
// hearing from any other partition — a message sent during the window
// carries a delay >= L, so it lands at or after the window's end. The
// run goroutine dispatches each active partition's window in turn, in
// partition order; at the barrier it drains every partition's outbox and
// applies the messages in the total order (at, sender partition, sender
// send-seq).
//
// Windows are not dispatched concurrently. A PD1 window holds ~8 events
// (a few microseconds of host work), which is less than one cross-thread
// barrier hand-off costs, so a worker pool lost to this loop on every
// measurement (DESIGN.md §11). Partitions stay because the per-partition
// heaps are smaller than the single-partition engine's one heap, which
// makes this loop the faster engine for PD1 even on one goroutine.
//
// Determinism: within a window a partition runs the exact sequential
// (at, seq) loop; the window boundaries depend only on event timestamps;
// and the barrier merge order is a pure function of message content. A
// run's output — every event, every emitted trace record, every counter —
// is a function of the model alone.
//
// Safety rule: all cross-partition interaction must go through SendTo
// (or spawn-time GoOn). Queues, conds, resources, and waiter wakeups are
// partition-local; sharing them across partitions is a model bug.
//
// Partition context: while the engine runs, every partition-local call
// names its partition through a handle the caller already holds — the
// running *Proc (Proc.Now, Proc.SendTo) or an Engine.Part handle (Now,
// At, After, SendTo, Go, Stop). The ambient Engine methods have no
// partition to act on then and panic, naming the explicit form; no
// goroutine is ever registered or looked up.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// AddPartition creates a new partition and returns its id. Partitions must
// be created before the first Run; partition 0 (the shared partition)
// always exists. Multi-partition engines require SetLookahead before Run.
func (e *Engine) AddPartition(name string) PartID {
	if e.inRun {
		panic("sim: AddPartition while the engine is running")
	}
	s := &shard{
		eng:   e,
		id:    PartID(len(e.parts)),
		name:  name,
		procs: make(map[*Proc]struct{}),
	}
	e.parts = append(e.parts, s)
	e.multi = true
	return s.id
}

// Partitions returns the number of partitions (1 for a classic sequential
// engine).
func (e *Engine) Partitions() int { return len(e.parts) }

// PartName returns the diagnostic name of a partition.
func (e *Engine) PartName(id PartID) string { return e.parts[id].name }

// SetLookahead declares the minimum cross-partition latency: every SendTo
// delay must be >= d. It bounds the quantum window width; larger lookahead
// means fewer barriers. Machines derive it from their cost model (the IPI
// wire latency is the fastest cross-CPU path).
func (e *Engine) SetLookahead(d Time) {
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	e.lookahead = d
}

// Lookahead returns the configured lookahead (0 if unset).
func (e *Engine) Lookahead() Time { return e.lookahead }

// GoOn spawns a process on a specific partition at that partition's
// current time. It is a setup-time call on a multi-partition engine: a
// running partition spawns onto itself with Engine.Part(id).Go and asks
// another partition to spawn with SendTo after the lookahead delay.
func (e *Engine) GoOn(part PartID, name string, body func(p *Proc)) *Proc {
	if e.inRun && e.multi {
		panic(fmt.Sprintf("sim: GoOn(%d) while a multi-partition engine is running; spawn on the running partition with Engine.Part(id).Go, or across partitions via SendTo", part))
	}
	s := e.parts[part]
	return e.spawnOn(s, s.now, name, body)
}

// SendTo schedules fn to run on the given partition d cycles from now.
// On a single-partition engine it is exactly After; on a multi-partition
// engine it is a setup-time call that lands directly on the target
// partition. While a multi-partition engine runs, the sender must be
// named: Proc.SendTo or Engine.Part(id).SendTo.
func (e *Engine) SendTo(part PartID, d Time, fn func()) {
	e.cur("SendTo", "Proc.SendTo or Engine.Part(id).SendTo").sendTo(part, d, fn)
}

// sendTo schedules fn on partition part, d cycles from this shard's
// current time. On this shard (or before the engine runs) it is a plain
// local schedule. Across partitions the delay must be >= the engine's
// lookahead — that bound is what makes the quantum windows safe — and the
// message is buffered in this shard's outbox until the next barrier,
// where all messages are applied in the deterministic (at, sender,
// send-seq) order.
func (s *shard) sendTo(part PartID, d Time, fn func()) {
	e := s.eng
	dst := e.parts[part]
	if dst == s || !e.inRun {
		dst.at(dst.now+d, fn)
		return
	}
	if d < e.lookahead {
		panic(fmt.Sprintf("sim: SendTo delay %d below lookahead %d (partition %d -> %d)", d, e.lookahead, s.id, part))
	}
	s.sendSeq++
	s.statMsgs++
	s.outbox = append(s.outbox, xmsg{
		at:   s.now + d,
		from: s.id,
		seq:  s.sendSeq,
		to:   part,
		fn:   fn,
	})
}

// Part is an explicit handle on one partition: the way code running on a
// multi-partition engine — a callback, a device model, anything without a
// *Proc in hand — names the partition it executes on. Handles are cheap
// values; obtain one with Engine.Part. While the engine runs, a handle
// may only be used from code executing on its own partition (a callback
// or process there); at setup any handle is fair game. On a
// single-partition engine Part(0) behaves exactly like the ambient Engine
// methods.
type Part struct{ s *shard }

// Part returns the handle for partition id.
func (e *Engine) Part(id PartID) Part { return Part{e.parts[id]} }

// ID returns the partition's id.
func (h Part) ID() PartID { return h.s.id }

// Now returns the partition's clock.
func (h Part) Now() Time { return h.s.now }

// At schedules fn on the partition at absolute time t (clamped to now).
func (h Part) At(t Time, fn func()) { h.s.at(t, fn) }

// After schedules fn on the partition d cycles from its current time.
func (h Part) After(d Time, fn func()) { h.s.at(h.s.now+d, fn) }

// SendTo schedules fn on partition part, d cycles from this partition's
// current time: a local schedule when part is this partition, otherwise
// a cross-partition message with delay >= the engine's lookahead,
// buffered until the next quantum barrier.
func (h Part) SendTo(part PartID, d Time, fn func()) { h.s.sendTo(part, d, fn) }

// Go spawns a process on the partition at its current time.
func (h Part) Go(name string, body func(p *Proc)) *Proc {
	return h.s.eng.spawnOn(h.s, h.s.now, name, body)
}

// Stop halts the engine: a single-partition engine after the current
// event, a multi-partition engine at the end of the current quantum
// window, so the stop point is deterministic. Pending events are
// retained; Run may be called again to continue.
func (h Part) Stop() {
	h.s.stopped = true
	if h.s.eng.multi {
		h.s.eng.stopAll = true
	}
}

// runQuanta is the multi-partition Run/RunUntil body: lookahead-bounded
// windows separated by message barriers.
func (e *Engine) runQuanta(deadline Time, hasDeadline bool) {
	if e.lookahead <= 0 {
		panic("sim: multi-partition engine requires SetLookahead before Run")
	}
	e.inRun = true
	defer func() { e.inRun = false }()
	e.stopAll = false
	for _, s := range e.parts {
		s.stopped = false
	}
	active := make([]*shard, 0, len(e.parts))
	var msgs []xmsg
	for {
		// t = earliest pending event across partitions; the window is
		// [t, t+L), inclusive bound t+L-1.
		t := Time(math.MaxInt64)
		none := true
		for _, s := range e.parts {
			if len(s.queue) > 0 {
				none = false
				if s.queue[0].at < t {
					t = s.queue[0].at
				}
			}
		}
		if none {
			break
		}
		if hasDeadline && t > deadline {
			break
		}
		limit := t + e.lookahead - 1
		if limit < t { // overflow guard
			limit = math.MaxInt64
		}
		if hasDeadline && limit > deadline {
			limit = deadline
		}
		active = active[:0]
		for _, s := range e.parts {
			if len(s.queue) > 0 && s.queue[0].at <= limit {
				active = append(active, s)
			}
		}
		// The active shards run the window one after another, in partition
		// order. Health counters: each participated in one window; the gap
		// between its clock and the window bound is the stall other
		// partitions could not overlap — a pure function of event
		// timestamps.
		for _, s := range active {
			s.window(limit)
			s.statWindows++
			if limit != math.MaxInt64 && s.now < limit {
				s.statStall += int64(limit - s.now)
			}
		}
		msgs = e.drainOutboxes(msgs)
		if e.stopAll {
			break
		}
	}
}

// window dispatches one quantum window on the shard: the sequential loop
// bounded by limit (inclusive). Nothing is registered for the calling
// goroutine: code inside the window names its partition through its Proc
// or Part handle.
func (s *shard) window(limit Time) {
	s.hasLim, s.limit = true, limit
	s.drive()
	s.hasLim = false
}

// drainOutboxes applies every buffered cross-partition message at the
// barrier, in the total order (at, sender partition, sender send-seq).
// The scratch slice is reused across barriers and the sort allocates
// nothing, so a barrier costs no allocation in steady state. Conservative
// invariant: every message timestamp is at or beyond the window that just
// ran, so it can never be earlier than its destination's clock.
func (e *Engine) drainOutboxes(scratch []xmsg) []xmsg {
	msgs := scratch[:0]
	for _, s := range e.parts {
		if len(s.outbox) == 0 {
			continue
		}
		msgs = append(msgs, s.outbox...)
		for i := range s.outbox {
			s.outbox[i] = xmsg{} // release the closures
		}
		s.outbox = s.outbox[:0]
	}
	if len(msgs) == 0 {
		return msgs
	}
	slices.SortFunc(msgs, func(a, b xmsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range msgs {
		m := &msgs[i]
		dst := e.parts[m.to]
		if m.at < dst.now {
			panic(fmt.Sprintf("sim: cross-partition message at %d behind partition %d clock %d (lookahead violated)", m.at, m.to, dst.now))
		}
		dst.at(m.at, m.fn)
		*m = xmsg{} // release the closure
	}
	return msgs[:0]
}
