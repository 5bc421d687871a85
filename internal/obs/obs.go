// Package obs is the full-run observability layer: a typed event bus the
// simulator's layers publish structured events into, so a whole experiment
// (a TCP_RR loop, an oversubscription run, a fault storm) can be observed
// the way `perf kvm stat` or xentrace observes a real hypervisor.
//
// The design mirrors the paper's own measurement framework: a lightweight
// in-kernel recorder that stamps transition events with a shared cycle
// counter and attributes where VM-to-hypervisor transitions spend their
// time. Here the shared counter is the simulation clock, so the recorded
// stream is exact and deterministic: two runs of the same experiment
// produce byte-identical event sequences.
//
// A Recorder is attached per machine (hw.Machine.SetRecorder) and holds one
// fixed-capacity ring buffer per physical CPU plus one machine-level ring
// for events with no CPU affinity. A nil *Recorder is valid and records
// nothing, so instrumentation hooks stay in place at zero cost when
// observability is off.
package obs

import (
	"fmt"
	"sort"

	"armvirt/internal/sim"
)

// Kind is the event taxonomy. Every instrumented layer publishes one of
// these; the aggregation and export layers switch on it.
type Kind uint8

// The event kinds.
const (
	// GuestEnter marks a VCPU (re-)entering guest execution: the eret /
	// VM-entry completed and guest code is running.
	GuestEnter Kind = iota
	// GuestExit marks a VM exit; Detail carries the exit reason
	// ("hypercall", "wfi", "mmio-kick", "stage2-fault", ...). The event
	// is stamped at trap time, so the gap to the VCPU's next GuestEnter
	// is the full not-in-guest cost of the exit.
	GuestExit
	// VirqInject marks a virtual interrupt being made pending for a
	// VCPU; Arg is the virq number.
	VirqInject
	// VMSwitch marks the physical CPU changing which VM context occupies
	// it — a scheduler-driven switch between VMs, or the block/wake path
	// through the host idle thread (KVM) or the idle domain (Xen).
	VMSwitch
	// IOKick marks I/O signalling: a guest kicking its backend, a
	// backend notifying a guest, a paravirtual ring operation, or a NIC
	// raising its interrupt. Detail names the path.
	IOKick
	// SchedDecision marks a scheduling decision: a credit-scheduler or
	// round-robin pick, or the least-loaded dispatcher placing work.
	SchedDecision
	// Stage2Fault marks a Stage-2 (nested page table) fault; Arg is the
	// faulting IPA.
	Stage2Fault
	// PhysIRQ marks a physical interrupt delivery at a CPU (distributor
	// SGI/PPI/SPI on ARM, IPI/MSI on x86); Arg is the IRQ number.
	PhysIRQ
	// ProcEvent marks an engine-level process lifecycle event (fiber
	// start/exit), published by the sim engine's tap.
	ProcEvent

	numKinds
)

// Kinds lists every event kind in declaration order.
var Kinds = []Kind{
	GuestEnter, GuestExit, VirqInject, VMSwitch, IOKick,
	SchedDecision, Stage2Fault, PhysIRQ, ProcEvent,
}

// String returns the stable lower-case label used in summaries and traces.
func (k Kind) String() string {
	switch k {
	case GuestEnter:
		return "guest-enter"
	case GuestExit:
		return "guest-exit"
	case VirqInject:
		return "virq-inject"
	case VMSwitch:
		return "vm-switch"
	case IOKick:
		return "io-kick"
	case SchedDecision:
		return "sched"
	case Stage2Fault:
		return "stage2-fault"
	case PhysIRQ:
		return "phys-irq"
	case ProcEvent:
		return "proc"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one structured trace record.
type Event struct {
	// Seq is the global emission order within the recorder, assigned at
	// Emit time. It totally orders the stream even when several events
	// share a timestamp.
	Seq uint64
	// T is the simulation time (cycles) the event was emitted at.
	T sim.Time
	// Kind classifies the event.
	Kind Kind
	// PCPU is the physical CPU the event is associated with, or -1 for
	// machine-level events.
	PCPU int
	// VM names the virtual machine involved ("" when not applicable).
	VM string
	// VCPU is the VCPU index within VM, or -1.
	VCPU int
	// Detail is the kind-specific label: the exit reason for GuestExit,
	// the I/O path for IOKick, the IRQ class for PhysIRQ, and so on.
	Detail string
	// Arg is the kind-specific numeric argument: virq or IRQ number,
	// faulting IPA, target index.
	Arg int64
}

func (e Event) String() string {
	return fmt.Sprintf("%10d %-12s pcpu=%d %s/vcpu%d %s arg=%d",
		int64(e.T), e.Kind, e.PCPU, e.VM, e.VCPU, e.Detail, e.Arg)
}

// ring is a bounded circular event buffer: it grows by append up to its
// capacity, so a quiet ring costs only the events it holds; once full,
// the oldest event is overwritten and counted as dropped.
type ring struct {
	buf     []Event // live events; oldest at start once the ring is full
	cap     int
	start   int // index of the oldest event (0 until the ring wraps)
	dropped int64
}

func newRing(capacity int) *ring { return &ring{cap: capacity} }

func (r *ring) push(ev Event) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % r.cap
	r.dropped++
}

// events returns the live events oldest-first.
func (r *ring) events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}

// DefaultRingCap is the per-CPU ring capacity used when NewRecorder is
// given a non-positive capacity.
const DefaultRingCap = 1 << 16

// kindCounts is one partition's per-kind event tally.
type kindCounts [numKinds]int64

// Recorder is the per-machine event bus: one ring per physical CPU plus a
// machine-level ring, a sequence counter, and per-kind counters. All
// methods are safe on a nil receiver (no-ops / zero values), so hot paths
// can emit unconditionally.
//
// By default the recorder is written exclusively from inside a
// single-partition simulation engine's event loop (fibers run one at a
// time), so it needs no locking and its contents are deterministic. For a
// machine running on a partitioned engine (conservative parallel
// simulation; see internal/sim), Partition splits the recorder's mutable
// cursors — sequence counters, kind counters, machine-level rings, and the
// span-profiler state — per partition, so concurrently executing
// partitions never share a cursor. Aggregated views (Events, Count,
// Profile) merge the per-partition state in a deterministic order that is
// independent of the host worker count.
type Recorder struct {
	ncpu int
	// rings holds the ncpu per-CPU rings followed by one machine-level
	// ring per partition: rings[ncpu+part].
	rings []*ring
	// nparts is the partition count (1 until Partition is called).
	nparts int
	// cpuPart maps a physical CPU to its owning partition (nil = all 0).
	cpuPart []int
	// seqs and counts are the per-partition emission cursors.
	seqs   []uint64
	counts []kindCounts
	// profiling holds the per-partition span-profiler state (profile.go),
	// each created lazily on first Span/ChargeCycles use.
	profiling []*profState
}

// NewRecorder creates a recorder for a machine with ncpu physical CPUs.
// ringCap is the per-ring capacity; <= 0 selects DefaultRingCap.
func NewRecorder(ncpu, ringCap int) *Recorder {
	if ncpu < 0 {
		ncpu = 0
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	r := &Recorder{
		ncpu:      ncpu,
		rings:     make([]*ring, ncpu+1),
		nparts:    1,
		seqs:      make([]uint64, 1),
		counts:    make([]kindCounts, 1),
		profiling: make([]*profState, 1),
	}
	for i := range r.rings {
		r.rings[i] = newRing(ringCap)
	}
	return r
}

// Partition reconfigures the recorder for a machine split across nparts
// engine partitions. cpuPart maps each physical CPU to its partition; CPUs
// beyond len(cpuPart) (and machine-level events emitted without EmitPart)
// belong to partition 0. Partition must be called before any events are
// emitted; it panics otherwise. No-op on a nil recorder.
func (r *Recorder) Partition(nparts int, cpuPart []int) {
	if r == nil {
		return
	}
	if nparts < 1 {
		nparts = 1
	}
	if r.Total() != 0 || r.Len() != 0 {
		panic("obs: Partition after events were emitted")
	}
	for _, p := range cpuPart {
		if p < 0 || p >= nparts {
			panic(fmt.Sprintf("obs: cpuPart entry %d out of range [0,%d)", p, nparts))
		}
	}
	ringCap := DefaultRingCap
	if len(r.rings) > 0 {
		ringCap = r.rings[0].cap
	}
	r.nparts = nparts
	r.cpuPart = append([]int(nil), cpuPart...)
	r.seqs = make([]uint64, nparts)
	r.counts = make([]kindCounts, nparts)
	r.profiling = make([]*profState, nparts)
	r.rings = make([]*ring, r.ncpu+nparts)
	for i := range r.rings {
		r.rings[i] = newRing(ringCap)
	}
}

// Partitions returns the recorder's partition count (1 unless Partition
// was called).
func (r *Recorder) Partitions() int {
	if r == nil {
		return 0
	}
	return r.nparts
}

// partOfCPU returns the partition owning events stamped with pcpu.
func (r *Recorder) partOfCPU(pcpu int) int {
	if pcpu >= 0 && pcpu < len(r.cpuPart) {
		return r.cpuPart[pcpu]
	}
	return 0
}

// NCPU returns the physical CPU count the recorder was built for.
func (r *Recorder) NCPU() int {
	if r == nil {
		return 0
	}
	return r.ncpu
}

// Emit records one event. No-op on a nil recorder. Events with pcpu
// outside [0, ncpu) land in a machine-level ring. On a partitioned
// recorder the event is cursored under the partition that owns pcpu
// (machine-level events under partition 0 — use EmitPart from partition
// code that knows better).
func (r *Recorder) Emit(t sim.Time, k Kind, pcpu int, vm string, vcpu int, detail string, arg int64) {
	if r == nil {
		return
	}
	r.emit(r.partOfCPU(pcpu), t, k, pcpu, vm, vcpu, detail, arg)
}

// EmitPart is Emit for machine-level events produced by a known partition
// (for example the engine's per-partition process-lifecycle tap): the
// event is cursored under that partition so concurrent partitions never
// share a sequence counter. No-op on a nil recorder.
func (r *Recorder) EmitPart(t sim.Time, part int, k Kind, pcpu int, vm string, vcpu int, detail string, arg int64) {
	if r == nil {
		return
	}
	if part < 0 || part >= r.nparts {
		part = 0
	}
	r.emit(part, t, k, pcpu, vm, vcpu, detail, arg)
}

func (r *Recorder) emit(part int, t sim.Time, k Kind, pcpu int, vm string, vcpu int, detail string, arg int64) {
	r.seqs[part]++
	r.counts[part][k]++
	idx := pcpu
	if idx < 0 || idx >= r.ncpu {
		idx = r.ncpu + part
	}
	r.rings[idx].push(Event{
		Seq: r.seqs[part], T: t, Kind: k,
		PCPU: pcpu, VM: vm, VCPU: vcpu,
		Detail: detail, Arg: arg,
	})
}

// Count returns how many events of kind k have been emitted (including any
// that have since been dropped from their ring), summed across partitions.
func (r *Recorder) Count(k Kind) int64 {
	if r == nil {
		return 0
	}
	var t int64
	for p := range r.counts {
		t += r.counts[p][k]
	}
	return t
}

// Total returns the total emitted event count.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	var t int64
	for p := range r.counts {
		for _, c := range r.counts[p] {
			t += c
		}
	}
	return t
}

// Dropped returns how many events were overwritten ring-buffer style.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for _, rg := range r.rings {
		d += rg.dropped
	}
	return d
}

// Len returns the number of events currently held in the rings.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, rg := range r.rings {
		n += len(rg.buf)
	}
	return n
}

// Events returns the retained events merged across all rings in emission
// order. On a single-partition recorder that is exactly the global Seq
// order. On a partitioned recorder the canonical order is (T, partition,
// partition-local Seq) — a pure function of the recorded content, so it is
// byte-identical at every engine worker count — and Seq is renumbered to
// the merged position so consumers still see one total order. The result
// is freshly allocated and deterministic.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.nparts == 1 {
		out := make([]Event, 0, r.Len())
		for _, rg := range r.rings {
			out = append(out, rg.events()...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
		return out
	}
	type pev struct {
		part int
		ev   Event
	}
	merged := make([]pev, 0, r.Len())
	for i, rg := range r.rings {
		part := 0
		if i < r.ncpu {
			part = r.partOfCPU(i)
		} else {
			part = i - r.ncpu
		}
		for _, ev := range rg.events() {
			merged = append(merged, pev{part: part, ev: ev})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.ev.T != b.ev.T {
			return a.ev.T < b.ev.T
		}
		if a.part != b.part {
			return a.part < b.part
		}
		return a.ev.Seq < b.ev.Seq
	})
	out := make([]Event, len(merged))
	for i, m := range merged {
		out[i] = m.ev
		out[i].Seq = uint64(i + 1)
	}
	return out
}

// Reset clears all rings and counters while keeping capacities and the
// partition layout.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i, rg := range r.rings {
		r.rings[i] = newRing(rg.cap)
	}
	for p := range r.seqs {
		r.seqs[p] = 0
		r.counts[p] = kindCounts{}
	}
}
