// Package hyp defines the hypervisor framework shared by the KVM and Xen
// models: virtual machines, virtual CPUs pinned to physical CPUs (the
// paper's measurement methodology, §III), the in-guest operation surface
// benchmarks program against, and the signaling constants both hypervisors
// use.
package hyp

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/gic"
	"armvirt/internal/hw"
	"armvirt/internal/mem"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// Type is the hypervisor design type of Figure 1.
type Type int

const (
	// Type1 is a bare-metal hypervisor (Xen).
	Type1 Type = iota
	// Type2 is a hosted hypervisor integrated with an OS kernel (KVM).
	Type2
)

func (t Type) String() string {
	if t == Type1 {
		return "Type 1"
	}
	return "Type 2"
}

// Interrupt numbers the hypervisor models use for signaling.
const (
	// SGIKick is the IPI KVM uses to kick a VCPU out of guest mode (or
	// wake its thread) when vgic state changed.
	SGIKick gic.IRQ = 1
	// SGIVirtIPI carries a guest-to-guest virtual IPI's physical leg.
	SGIVirtIPI gic.IRQ = 2
	// SGIResched is the host scheduler's rescheduling IPI.
	SGIResched gic.IRQ = 3
	// VirqTimer is the virtual timer interrupt as seen by guests.
	VirqTimer gic.IRQ = 27
	// VirqEvtchn is Xen's event-channel upcall PPI.
	VirqEvtchn gic.IRQ = 31
	// VirqVirtioNet is the virtio-net device interrupt as seen by KVM
	// guests (an SPI).
	VirqVirtioNet gic.IRQ = 48
	// VirqGuestIPI is the SGI number guests use for their own IPIs.
	VirqGuestIPI gic.IRQ = 5
	// NICSpi is the physical NIC interrupt.
	NICSpi gic.IRQ = 68
)

// VM is a virtual machine: a name, a Stage-2 address space, and a set of
// VCPUs pinned 1:1 to physical CPUs.
type VM struct {
	Name  string
	VMID  int
	Hyp   Hypervisor
	VCPUs []*VCPU
	S2    *mem.S2Table
	// VGICDist is the per-VM emulated distributor register file (ARM):
	// the state the hypervisor's vgic consults on every trapped
	// distributor access.
	VGICDist *gic.DistRegs
}

// VCPU is one virtual CPU, pinned to a physical CPU for its lifetime
// (mirroring the paper's configuration best practices).
type VCPU struct {
	VM  *VM
	ID  int
	Ctx cpu.ContextID
	// CPU is the pinned physical CPU.
	CPU *hw.CPU
	// InGuest reports whether the VCPU is currently executing guest
	// code (vs. blocked in the hypervisor/host).
	InGuest bool
	// Resident reports whether this VCPU's register state is loaded on
	// its physical CPU.
	Resident bool
	// VgicImage holds the saved virtual interrupt interface state while
	// the VCPU is not resident (ARM).
	VgicImage gic.Image
	// PendingSoft is the software-pending virtual interrupt list
	// (KVM's vgic distributor state / Xen's pending evtchn bitmap):
	// interrupts a remote sender has marked for this VCPU that have not
	// yet been placed in list registers.
	PendingSoft []gic.IRQ
	// Exits counts VM exits by reason, the statistic exit-rate studies
	// report. Hypervisor implementations bump it on every guest exit.
	Exits map[string]int64
	// EnterT is the simulated time of the last GuestEnter, or -1 while the
	// VCPU is not in a guest span. Emit maintains it to attribute the
	// guest-mode interval to the telemetry sampler on the matching
	// GuestExit.
	EnterT sim.Time
}

// Emit publishes a structured observability event for this VCPU, stamped
// with the current simulation time and the VCPU's pinned physical CPU.
// No-op when the machine has no recorder attached. Emit is also the
// telemetry choke point: every hypervisor implementation publishes
// GuestEnter/GuestExit through here, so the guest-mode utilization series
// and the per-reason exit counters hook in without touching either
// hypervisor model.
func (v *VCPU) Emit(k obs.Kind, detail string, arg int64) {
	m := v.VM.Hyp.Machine()
	now := m.Eng.Now()
	pcpu := v.CPU.P.ID()
	switch k {
	case obs.GuestEnter:
		v.EnterT = now
	case obs.GuestExit:
		if v.EnterT >= 0 {
			m.Tel.AddPhaseSpan(pcpu, v.VM.Name, telemetry.PhaseGuest, v.EnterT, now)
			v.EnterT = -1
		}
		m.Tel.IncExit(now, pcpu, v.VM.Name, detail)
	}
	m.Rec.Emit(now, k, pcpu, v.VM.Name, v.ID, detail, arg)
}

// CountExit records one VM exit with the given reason. It is the single
// choke point every hypervisor implementation routes exits through, so it
// also publishes the GuestExit event: the gap from here to the VCPU's next
// GuestEnter is the exit's full not-in-guest cost.
func (v *VCPU) CountExit(reason string) {
	if v.Exits == nil {
		v.Exits = map[string]int64{}
	}
	v.Exits[reason]++
	v.Emit(obs.GuestExit, reason, 0)
}

// TotalExits sums all recorded exits.
func (v *VCPU) TotalExits() int64 {
	var t int64
	for _, n := range v.Exits {
		t += n
	}
	return t
}

func (v *VCPU) String() string { return fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID) }

// PostSoft marks virq software-pending for this VCPU (deduplicated). The
// caller is responsible for kicking the VCPU so the interrupt is noticed.
func (v *VCPU) PostSoft(virq gic.IRQ) {
	for _, q := range v.PendingSoft {
		if q == virq {
			return
		}
	}
	v.PendingSoft = append(v.PendingSoft, virq)
}

// DrainSoft removes and returns all software-pending interrupts.
func (v *VCPU) DrainSoft() []gic.IRQ {
	out := v.PendingSoft
	v.PendingSoft = nil
	return out
}

// Charge makes the VCPU's current execution pay c cycles and attributes
// them to name, under the fiber's current span stack, in the machine's
// profiler. Cycles charged outside a guest span (EnterT < 0, not !InGuest
// — CountExit closes the span before the trap cost is charged while
// InGuest is still set) count toward the telemetry hypervisor-utilization
// series.
func (v *VCPU) Charge(p *sim.Proc, name string, c cpu.Cycles) {
	if c <= 0 {
		return
	}
	m := v.VM.Hyp.Machine()
	m.Rec.ChargeCycles(p, name, int64(c))
	if v.EnterT < 0 {
		t0 := p.Now()
		m.Tel.AddPhaseSpan(v.CPU.P.ID(), v.VM.Name, telemetry.PhaseHyp, t0, t0+sim.Time(c))
	}
	p.Sleep(sim.Time(c))
}

// ChargeSpanned charges c cycles to name under a span opened (and closed)
// just for this charge: Span(span); Charge(name, c); EndSpan. It exists so
// call sites that span a single charge — the VGIC class inside a
// save/restore loop — stay statically balanced for armvirt-vet's
// spanbalance analyzer instead of opening and closing across correlated
// if statements.
func (v *VCPU) ChargeSpanned(p *sim.Proc, span, name string, c cpu.Cycles) {
	v.Span(p, span)
	defer v.EndSpan(p)
	v.Charge(p, name, c)
}

// Span opens a named profiling phase on the fiber p; cycles charged until
// the matching EndSpan are attributed under it. No-op without a recorder.
func (v *VCPU) Span(p *sim.Proc, name string) {
	v.VM.Hyp.Machine().Rec.Span(p, name)
}

// EndSpan closes the fiber's innermost profiling phase.
func (v *VCPU) EndSpan(p *sim.Proc) {
	v.VM.Hyp.Machine().Rec.EndSpan(p)
}

// Hypervisor is the operation surface both hypervisor models implement.
// "Guest-op" methods are invoked from a VCPU's fiber while it is executing
// guest code; backend methods are invoked from host/Dom0 fibers.
type Hypervisor interface {
	// Name is the display name ("KVM ARM", "Xen x86", ...).
	Name() string
	// HType returns Type1 or Type2.
	HType() Type
	// Machine returns the underlying hardware.
	Machine() *hw.Machine

	// NewVM creates a VM with one VCPU per entry of pin, each pinned to
	// the named physical CPU.
	NewVM(name string, pin []int) *VM

	// EnterGuest establishes guest context for v on its pinned CPU (the
	// initial VM entry) and marks it in-guest.
	EnterGuest(p *sim.Proc, v *VCPU)
	// ExitGuest performs a VM exit leaving the VCPU parked in the
	// hypervisor/host (used at guest teardown).
	ExitGuest(p *sim.Proc, v *VCPU)

	// Hypercall performs a null hypercall round trip from guest code
	// (the Hypercall microbenchmark).
	Hypercall(p *sim.Proc, v *VCPU)
	// GICTrap performs an emulated interrupt-controller access round
	// trip (the Interrupt Controller Trap microbenchmark).
	GICTrap(p *sim.Proc, v *VCPU)
	// SendVirtIPI issues a virtual IPI from v to target (both in
	// guest). It returns when the sender's trap is complete and the
	// physical leg has been dispatched; delivery proceeds
	// asynchronously.
	SendVirtIPI(p *sim.Proc, v *VCPU, target *VCPU)
	// HandlePhysIRQ processes a physical interrupt that arrived while v
	// was executing in guest mode: the hypervisor's exit-inject-reenter
	// path. On return the VCPU is back in guest with any pending
	// virtual interrupts visible.
	HandlePhysIRQ(p *sim.Proc, v *VCPU, d gic.Delivery)
	// BlockInGuest models the guest idling (WFI/HLT): the hypervisor
	// deschedules the VCPU until a wakeup interrupt arrives, then
	// resumes it with interrupts visible. Used by WaitVirq(spin=false).
	BlockInGuest(p *sim.Proc, v *VCPU)
	// CompleteVirq is the guest acknowledging + completing a virtual
	// interrupt (the Virtual IRQ Completion microbenchmark).
	CompleteVirq(p *sim.Proc, v *VCPU, virq gic.IRQ)
	// Stage2Fault handles a guest Stage-2 page fault at ipa: the
	// hypervisor allocates a machine page, installs the translation,
	// and resumes the guest. This is the "one-time page fault cost at
	// start up" §V notes; after it, memory virtualization proceeds
	// without hypervisor involvement.
	Stage2Fault(p *sim.Proc, v *VCPU, ipa mem.IPA)
	// SwitchVM switches the shared physical CPU from one VM's VCPU to
	// another's (the VM Switch microbenchmark). from must be resident.
	SwitchVM(p *sim.Proc, from, to *VCPU)

	// NotifyGuest injects virq into v from a backend context running on
	// proc p. For KVM the backend is a host kernel thread and from is
	// nil; for Xen the backend runs in Dom0 and from is the Dom0 VCPU
	// (whose hypercall trap the signal pays for). It returns once the
	// signal has been dispatched (not delivered).
	NotifyGuest(p *sim.Proc, from *VCPU, v *VCPU, virq gic.IRQ)
	// BackendDispatch pays the hypervisor-specific software cost
	// between the backend context waking and the backend handler
	// actually running (event-channel upcall dispatch and worker wake
	// for Xen; zero for KVM, whose wake latency is paid on the kick
	// path).
	BackendDispatch(p *sim.Proc, b *Backend)
	// KickBackend signals the I/O backend from guest code (the I/O
	// Latency Out microbenchmark's first half): guest->hypervisor->
	// backend wakeup. It returns when the guest is back in guest mode;
	// the backend wake proceeds asynchronously.
	KickBackend(p *sim.Proc, v *VCPU, b *Backend)
}

// Backend is an I/O backend execution context: KVM's vhost kernel thread
// or Xen's Dom0 netback. It runs as its own fiber, pinned to a CPU outside
// the VM's set, consuming wake signals from its inbox.
type Backend struct {
	Name string
	// CPU is the physical CPU the backend thread runs on.
	CPU *hw.CPU
	// Inbox receives wake tokens (the time of each kick).
	Inbox *sim.Queue[sim.Time]
	// Dom0VCPU is set for Xen: the Dom0 VCPU that actually runs the
	// backend (nil for KVM host threads).
	Dom0VCPU *VCPU
}

// NewBackend creates a backend bound to a CPU.
func NewBackend(eng *sim.Engine, name string, c *hw.CPU) *Backend {
	return &Backend{Name: name, CPU: c, Inbox: sim.NewQueue[sim.Time](eng, name+".inbox")}
}
