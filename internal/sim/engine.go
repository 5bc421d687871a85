// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine models virtual time in CPU cycles. Simulated activities run as
// processes (fibers): ordinary Go functions executing as runtime coroutines
// (iter.Pull, see coro.go) that the engine resumes one at a time. Because
// processes within a partition run one at a time and all ties in the event
// queue are broken by a monotonic sequence number, a simulation produces
// identical results on every run regardless of host scheduling.
//
// An engine is born with a single partition and behaves exactly like a
// classic sequential event loop. AddPartition splits the simulation into
// additional logical processes run in lookahead-bounded quantum windows
// (partition.go); single-partition engines never touch that machinery.
//
// Processes advance time with Proc.Sleep, exchange data through Queue, and
// coordinate through Cond and Resource. Plain callbacks can be scheduled
// with Engine.At; callbacks run inline in the engine and must not block.
//
// Partition context is explicit: code running on a multi-partition engine
// names its partition through the handle it already holds — the running
// *Proc or an Engine.Part handle — never through the calling goroutine.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, measured in CPU cycles. All PCPUs in a
// simulated machine share one clock domain (the paper's measurement
// methodology synchronizes counters across CPUs for exactly this reason).
type Time int64

// event is a scheduled engine action: either a plain callback (fn non-nil)
// or the one-shot resumption of a parked process (w non-nil, gen holding
// the waiter generation the wakeup was armed for). Events are stored by
// value in the heap, so steady-state scheduling performs no allocation.
type event struct {
	at  Time
	seq uint64
	gen uint64
	w   *waiter
	fn  func()
}

// eventHeap is a concrete binary min-heap of events ordered by (at, seq).
// Events live by value in the backing array, which is the pool: slots are
// reused across push/pop cycles, so the hot path neither boxes through
// interface{} (as container/heap would) nor allocates per event.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // clear the vacated slot so its closure can be collected
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// PartID identifies one partition (logical process) of an engine. Partition
// 0 always exists; AddPartition allocates the rest.
type PartID int

// shard is the per-partition half of the engine: a private clock, event
// heap, continuation-passing dispatch state, and work counters. A
// single-partition engine is exactly one shard (Engine.root), and every
// hot-path method operates on a shard, so splitting the engine added no
// work to the sequential fast path.
type shard struct {
	eng     *Engine
	id      PartID
	name    string
	now     Time
	seq     uint64
	queue   eventHeap
	running *Proc // proc whose coroutine runs this shard's loop (nil = the run goroutine)
	limit   Time  // inclusive dispatch bound for the current window / RunUntil
	hasLim  bool
	stopped bool
	procs   map[*Proc]struct{}

	// Cross-partition outbox: messages produced by this shard during a
	// quantum window, drained by the coordinator at the barrier. sendSeq
	// is the shard-local send order, part of the deterministic merge key.
	outbox  []xmsg
	sendSeq uint64

	// Work counters behind Stats(). They are driven exclusively by the
	// deterministic event sequence (pushes, pops, handoffs, spawns), so
	// their values are part of a run's reproducible output.
	statEvents   int64
	statSwitches int64
	statSpawned  int64
	statHeapHW   int

	// PDES health counters (multi-partition only): quantum windows this
	// shard participated in, cycles its clock lagged the window bound at
	// the barrier, and messages it buffered for other partitions. All
	// three are pure functions of event timestamps, never wall time.
	statWindows int64
	statStall   int64
	statMsgs    int64
}

// xmsg is a timestamped inter-partition message. Messages are buffered in
// the sender's outbox and applied at the next quantum barrier in the total
// order (at, from, seq), a pure function of message content.
type xmsg struct {
	at   Time
	from PartID
	seq  uint64
	to   PartID
	fn   func()
}

// Engine owns the virtual clock(s) and event queue(s). The zero value is
// not usable; construct with NewEngine.
//
// Every process body runs as a runtime coroutine, and within a partition
// the engine loop migrates between them: whichever process parks
// continues dispatching events inline on its own stack (continuation
// passing). A process that wakes itself therefore costs no switch at all,
// and when its wakeup is provably the next event — every other pending
// event is strictly later — Sleep and Yield dispatch it on the spot
// without the event heap (see Proc.Sleep). That shortcut is exact: the
// clock, sequence numbers and every counter end up as the heap round trip
// would have left them.
// Waking another process is a hand-off: the parking coroutine yields to
// the run goroutine — the one in Run, RunUntil or a quantum window — which
// resumes the woken one with a direct coroutine switch, never a trip
// through the Go scheduler. Logical execution order is unaffected:
// exactly one coroutine runs a given shard's loop at any instant. A panic
// in a process body or callback is re-raised in the run goroutine; on a
// single-partition engine it unwinds out of Run or RunUntil to their
// caller.
//
// With more than one partition (AddPartition), Run executes the
// conservative algorithm in partition.go: lookahead-bounded quantum
// windows, each dispatched partition by partition on the run goroutine,
// separated by barriers that exchange cross-partition messages in a
// deterministic order.
type Engine struct {
	root  shard
	parts []*shard // parts[0] == &root; more after AddPartition
	multi bool     // len(parts) > 1

	// lookahead is the minimum cross-partition latency: every SendTo
	// delay must be >= lookahead, which is what makes a window of that
	// width safe to dispatch without hearing from other partitions.
	lookahead Time
	// tel is the telemetry collector bound to the creating goroutine
	// (BindTelemetry), resolved once by NewEngine.
	tel any
	// stopAll requests a full stop at the next quantum barrier.
	stopAll bool
	// inRun is true while Run/RunUntil is executing. On a multi-partition
	// engine it separates setup-time calls, which may use the ambient
	// Engine methods, from run-time calls, which must name their
	// partition (Proc, Part).
	inRun bool
	// closed is set by Close; the engine accepts no further work.
	closed bool

	procTap func(t Time, what, name string)
}

// NewEngine returns an engine with the clock at zero, an empty queue, and
// a single partition. It consults the calling goroutine's binding once
// (and not at all when no goroutine is bound): a bound StatsCollector
// (CollectStats) registers the engine, and a bound telemetry collector is
// kept for Telemetry.
func NewEngine() *Engine {
	b := currentBinding()
	e := &Engine{tel: b.tel}
	e.root.eng = e
	e.root.id = 0
	e.root.name = "shared"
	e.root.procs = make(map[*Proc]struct{})
	e.parts = []*shard{&e.root}
	if b.col != nil {
		b.col.attach(e)
	}
	return e
}

// Telemetry returns the telemetry collector that was bound to the
// goroutine that created the engine (see BindTelemetry), or nil.
func (e *Engine) Telemetry() any { return e.tel }

// cur returns the shard an ambient Engine call (At, After, Go, GoAt,
// Stop, SendTo) acts on: the root shard. A running multi-partition engine
// has no ambient partition — the caller must name it — so there cur
// panics, pointing at the explicit form. The single-partition path tests
// only e.multi, exactly as before partitions existed.
func (e *Engine) cur(op, explicit string) *shard {
	if e.multi && e.inRun {
		panic(fmt.Sprintf("sim: Engine.%s on a running multi-partition engine is ambiguous; use %s", op, explicit))
	}
	return &e.root
}

// Now returns the current virtual time. On a multi-partition engine it is
// the furthest partition clock (the machine's elapsed time), and it may
// only be called while the engine is not running: code inside the
// simulation reads its own partition's clock with Proc.Now or
// Engine.Part(id).Now.
func (e *Engine) Now() Time {
	if !e.multi {
		return e.root.now
	}
	if e.inRun {
		panic("sim: Engine.Now on a running multi-partition engine is ambiguous; use Proc.Now or Engine.Part(id).Now")
	}
	var t Time
	for _, s := range e.parts {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// SetProcTap installs the engine's process-lifecycle tap: fn receives the
// event verb ("start", "exit") and the process name. Pass nil to disable.
// Observability layers use this to publish fiber lifecycles as typed
// events.
func (e *Engine) SetProcTap(fn func(t Time, what, name string)) { e.procTap = fn }

// noteProc reports a process-lifecycle event to the tap.
func (s *shard) noteProc(what string, p *Proc) {
	if fn := s.eng.procTap; fn != nil {
		fn(s.now, what, p.name)
	}
}

// at schedules fn on this shard at absolute time t (clamped to now).
func (s *shard) at(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
	s.noteHeapDepth()
}

// At schedules fn to run at absolute time t (clamped to now). fn executes
// inline in the engine loop and must not block or park. On a
// multi-partition engine At targets partition 0 and is for setup only;
// while running, use Engine.Part(id).At.
func (e *Engine) At(t Time, fn func()) { e.cur("At", "Engine.Part(id).At").at(t, fn) }

// After schedules fn to run d cycles from now, with At's partition rules.
func (e *Engine) After(d Time, fn func()) {
	s := e.cur("After", "Engine.Part(id).After")
	s.at(s.now+d, fn)
}

// wakeAt schedules the one-shot resumption of w's process at absolute time
// t (clamped to now). The registration is stored by value in the event
// heap and captures w's current generation, so the Sleep/Yield path
// allocates nothing and stale wakeups are no-ops. Wakeups are always
// partition-local: w's process lives on this shard.
func (s *shard) wakeAt(t Time, w *waiter) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, w: w, gen: w.gen})
	s.noteHeapDepth()
}

// noteHeapDepth tracks the event heap's high-water mark after a push.
func (s *shard) noteHeapDepth() {
	if n := len(s.queue); n > s.statHeapHW {
		s.statHeapHW = n
	}
}

// Stop makes Run return after the current event completes. Pending
// events are retained; Run may be called again to continue. On a running
// multi-partition engine, stop through the partition instead:
// Engine.Part(id).Stop.
func (e *Engine) Stop() {
	e.cur("Stop", "Engine.Part(id).Stop").stopped = true
}

// loop dispatches pending events on the calling stack until the shard
// goes idle (queue empty, Stop called, or deadline reached; running is
// cleared) or wakes a process. Waking s.running, the process already
// running the loop, reports true: it simply continues. Waking any other
// process makes it s.running and reports false; the caller must get back
// to the run goroutine, which resumes it.
func (s *shard) loop() (self bool) {
	for {
		if len(s.queue) == 0 || s.stopped || s.hasLim && s.queue[0].at > s.limit {
			s.running = nil
			return false
		}
		ev := s.queue.pop()
		if ev.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %d -> %d", s.now, ev.at))
		}
		s.now = ev.at
		s.statEvents++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		w := ev.w
		if w.gen != ev.gen {
			continue // stale wakeup: another path already woke the process
		}
		w.gen++
		p := w.p
		p.parked = false
		if p == s.running {
			return true
		}
		s.running = p
		s.statSwitches++
		return false
	}
}

// drive runs the shard from the run goroutine — the one in Run, RunUntil
// or a quantum window — until it goes idle: it dispatches until the first
// hand-off, then resumes whichever process the loop handed control to.
// Each resumed process runs the loop inline until it hands off again (or
// the shard goes idle) and yields back here.
func (s *shard) drive() {
	s.running = nil
	s.loop()
	for s.running != nil {
		s.running.next()
	}
}

// Run processes events until the queue is empty or Stop is called.
// Processes still parked when Run returns stay suspended — a later Run may
// resume them — until Close releases them. On a multi-partition engine
// Run executes the quantum algorithm (see partition.go).
func (e *Engine) Run() {
	if e.multi {
		e.runQuanta(0, false)
		return
	}
	e.inRun = true
	e.root.stopped = false
	e.root.hasLim = false
	e.root.drive()
	e.inRun = false
}

// RunUntil processes events with timestamps <= deadline, then sets the clock
// to deadline if it has not already passed it. Like Run, it panics if a
// dispatched event would move time backwards.
func (e *Engine) RunUntil(deadline Time) {
	if e.multi {
		e.runQuanta(deadline, true)
		for _, s := range e.parts {
			if s.now < deadline {
				s.now = deadline
			}
		}
		return
	}
	e.inRun = true
	e.root.stopped = false
	e.root.hasLim, e.root.limit = true, deadline
	e.root.drive()
	e.root.hasLim = false
	if e.root.now < deadline {
		e.root.now = deadline
	}
	e.inRun = false
}

// Idle reports whether no events remain on any partition.
func (e *Engine) Idle() bool {
	for _, s := range e.parts {
		if len(s.queue) > 0 {
			return false
		}
	}
	return true
}

// ParkedProcs returns the names of processes that are currently parked,
// across all partitions, sorted; useful for diagnosing stalled simulations
// in tests.
func (e *Engine) ParkedProcs() []string {
	var names []string
	for _, s := range e.parts {
		for p := range s.procs {
			if p.parked {
				names = append(names, p.name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Close ends the engine's life. Every process still registered — parked
// on a wakeup no event will deliver, or spawned and never started — is
// stopped, so an abandoned fiber stops pinning its stack and the machine
// graph it references. Processes are released one at a time in spawn
// order: a parked body unwinds from its park and its deferred calls run
// (they must not park); a body that never started runs nothing. Pending
// events are discarded. Close must not be called while the engine is
// running; calling it twice is a no-op, and an engine that was never run
// is fine. Stats, ParkedProcs (now empty) and Now stay readable
// afterwards.
func (e *Engine) Close() {
	if e.inRun {
		panic("sim: Close while the engine is running")
	}
	if e.closed {
		return
	}
	e.closed = true
	for _, s := range e.parts {
		procs := make([]*Proc, 0, len(s.procs))
		for p := range s.procs {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
		s.queue = nil
		s.outbox = nil
		for _, p := range procs {
			delete(s.procs, p)
			p.stop()
		}
	}
}

// procKilled is the panic value that unwinds a parked body stopped by
// Close; the recover at the coroutine boundary swallows exactly it.
type procKilled struct{}

// spawnOn creates the process record and its coroutine on shard s,
// initially parked waiting for the first dispatch at time t.
func (e *Engine) spawnOn(s *shard, t Time, name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: spawn on a closed engine")
	}
	s.statSpawned++
	p := &Proc{
		eng:  e,
		sh:   s,
		id:   s.statSpawned,
		name: name,
	}
	p.w.p = p
	s.procs[p] = struct{}{}
	p.next, p.stop = newCoroutine(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (procKilled{}) {
				panic(r)
			}
		}()
		p.yield = yield
		s.noteProc("start", p)
		body(p)
		s.noteProc("exit", p)
		delete(s.procs, p)
		// The exiting process owns the shard loop; keep dispatching here
		// until idle or a hand-off, then finish back to the run goroutine.
		s.loop()
	})
	s.wakeAt(t, &p.w)
	return p
}

// Go spawns a new process that begins executing body at the current time.
// The body runs as its own coroutine but is scheduled cooperatively: it
// only executes while the engine has handed it control. On a
// multi-partition engine Go spawns on partition 0 and is for setup only
// (see GoOn); while running, use Engine.Part(id).Go.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	s := e.cur("Go", "Engine.Part(id).Go")
	return e.spawnOn(s, s.now, name, body)
}

// GoAt is Go with a deferred start time.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	return e.spawnOn(e.cur("GoAt", "Engine.Part(id).Go"), t, name, body)
}

// Proc is a simulated process. All methods must be called from the process's
// own body function; calling them from outside the simulation is a
// programming error.
type Proc struct {
	eng    *Engine
	sh     *shard
	id     int64 // spawn order on its shard (Close releases in this order)
	name   string
	next   func() (struct{}, bool) // resumes the body (from the run goroutine)
	stop   func()                  // unwinds the body (Close)
	yield  func(struct{}) bool     // suspends the body; false once stopped
	w      waiter                  // reusable wakeup token; armed per park, never reallocated
	parked bool
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Part returns the partition the process lives on (0 on single-partition
// engines).
func (p *Proc) Part() PartID { return p.sh.id }

// Now returns the current virtual time of the process's partition.
func (p *Proc) Now() Time { return p.sh.now }

// SendTo schedules fn on partition part, d cycles from the process's
// current time, with Engine.Part(p.Part()).SendTo's rules.
func (p *Proc) SendTo(part PartID, d Time, fn func()) { p.sh.sendTo(part, d, fn) }

// park gives control back to the engine until some event unparks p. The
// parking process continues running the shard loop itself: if the next
// wakeup is its own it simply returns; on a hand-off or when the shard
// goes idle it yields to the run goroutine until resumed. A yield that reports
// false means Close stopped the process: it unwinds with procKilled.
func (p *Proc) park() {
	p.parked = true
	if p.sh.loop() {
		return
	}
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep advances the process's local view of time by d cycles. Other events
// in the system proceed during the sleep. d <= 0 returns immediately without
// yielding.
//
// When nothing can run before the wakeup — the engine is running, the
// shard is not stopped, now+d is within the window or RunUntil bound, and
// every pending event is strictly later than now+d (an equal-time event
// has a lower sequence number and runs first) — the wakeup would be the
// very next event dispatched, back to this same process. Sleep then does
// exactly what the push, pop and dispatch would have done to the clock,
// the sequence number and the counters, without touching the event heap.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.wakeSelf(p.sh.now + d)
}

// SleepUntil parks until the absolute time t (no-op if t has passed).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sh.now {
		return
	}
	p.Sleep(t - p.sh.now)
}

// Yield reschedules the process at the current time, letting any other
// events queued for this instant run first.
func (p *Proc) Yield() { p.wakeSelf(p.sh.now) }

// wakeSelf suspends p until t (>= now). When p's wakeup would be the next
// event dispatched (see Sleep), it moves the sequence number, heap
// high-water mark, clock, event count and waiter generation as wakeAt,
// park and loop would have, and returns. Otherwise the wakeup goes on the
// heap and p parks; outside Run (a deferred Sleep while Close unwinds the
// body) that is always the case.
func (p *Proc) wakeSelf(t Time) {
	s := p.sh
	if s.eng.inRun && !s.stopped && (!s.hasLim || t <= s.limit) &&
		(len(s.queue) == 0 || s.queue[0].at > t) {
		s.seq++
		if n := len(s.queue) + 1; n > s.statHeapHW {
			s.statHeapHW = n
		}
		s.now = t
		s.statEvents++
		p.w.gen++
		return
	}
	s.wakeAt(t, &p.w)
	p.park()
}

// waiter is a one-shot wakeup token. Each Proc embeds a single waiter that
// is reused across parks: every registration (an event-heap entry or a
// queue/cond/resource wait list entry) captures the generation it was
// armed for, and consuming a wakeup bumps the generation. Exactly one of
// the paths racing to wake a parked process finds a current generation;
// the rest become stale no-ops. Because all paths run inside the waiter's
// own partition loop there is no data race.
type waiter struct {
	p   *Proc
	gen uint64
}

// waiterRef is a wait-list registration: the waiter plus the generation it
// was armed for.
type waiterRef struct {
	w   *waiter
	gen uint64
}

// ref captures p's waiter at its current generation for a wait list.
func (p *Proc) ref() waiterRef { return waiterRef{w: &p.w, gen: p.w.gen} }

// stale reports whether the registration has already been consumed.
func (r waiterRef) stale() bool { return r.w.gen != r.gen }

// consume claims the registration (making every sibling registration
// stale) and schedules the resumption of the waiting process at the
// current time, on the process's own partition. Callers must check
// stale() first. Queues, conds, and resources are partition-local by
// construction (see partition.go), so the waiter's shard is the shard
// executing the wake.
func (r waiterRef) consume(e *Engine) {
	r.w.gen++
	s := r.w.p.sh
	s.wakeAt(s.now, r.w)
}
