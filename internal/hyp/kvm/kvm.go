package kvm

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/gic"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/mem"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
)

// armAllClasses is the register state split-mode KVM context switches on
// every transition between VM and host — the seven rows of Table III.
var armAllClasses = []cpu.RegClass{
	cpu.GP, cpu.FP, cpu.EL1Sys, cpu.VGIC, cpu.Timer, cpu.EL2Config, cpu.EL2VM,
}

// hostClasses is the host's own minimal context the split-mode switch
// restores/saves around running the host.
var hostClasses = []cpu.RegClass{cpu.GP, cpu.EL1Sys}

// KVM is the Type 2 hypervisor model.
type KVM struct {
	m     *hw.Machine
	c     Costs
	vhe   bool
	vmSeq int
	// resident tracks, per PCPU, which VCPU's full state is loaded
	// (meaningful for VHE, where guest state stays resident across
	// exits, and for x86's current-VMCS tracking).
	resident []*hyp.VCPU
	// nextPA is the bump allocator for machine pages backing guest
	// memory.
	nextPA mem.PA
}

// New creates a KVM instance on m. vhe selects the ARMv8.1 E2H
// configuration (ignored on x86, which needs no equivalent).
func New(m *hw.Machine, c Costs, vhe bool) *KVM {
	k := &KVM{m: m, c: c, vhe: vhe, resident: make([]*hyp.VCPU, m.NCPU()), nextPA: 0x8000_0000}
	for _, pc := range m.CPUs {
		host := cpu.ContextID{Owner: "host", VCPU: pc.P.ID()}
		switch m.Arch {
		case cpu.ARM:
			if vhe {
				pc.P.SetVHE(true)
				pc.P.LoadState(host, cpu.GP)
				// The VHE host keeps Stage-2 and traps armed for
				// guests; EL2 execution is unaffected by either.
				pc.P.EnableStage2()
				pc.P.EnableTraps()
			} else {
				pc.P.LoadState(host, hostClasses...)
				pc.P.EnterHostKernel() // host runs in EL1
			}
		case cpu.X86:
			pc.P.LoadState(host, cpu.GP)
			// Host kernel runs in root mode; nothing to arm.
		}
	}
	return k
}

// Name implements hyp.Hypervisor.
func (k *KVM) Name() string {
	switch {
	case k.m.Arch == cpu.X86:
		return "KVM x86"
	case k.vhe:
		return "KVM ARM (VHE)"
	default:
		return "KVM ARM"
	}
}

// HType implements hyp.Hypervisor.
func (k *KVM) HType() hyp.Type { return hyp.Type2 }

// Machine implements hyp.Hypervisor.
func (k *KVM) Machine() *hw.Machine { return k.m }

// VHE reports whether the ARMv8.1 configuration is active.
func (k *KVM) VHE() bool { return k.vhe }

// Costs returns the software cost table (read-only use).
func (k *KVM) Costs() Costs { return k.c }

// NewVM implements hyp.Hypervisor.
func (k *KVM) NewVM(name string, pin []int) *hyp.VM {
	k.vmSeq++
	return hyp.NewVMCommon(k, name, k.vmSeq, pin)
}

func (k *KVM) hostCtx(pc *hw.CPU) cpu.ContextID {
	return cpu.ContextID{Owner: "host", VCPU: pc.P.ID()}
}

// --- world switch -----------------------------------------------------------

// exitToHost is the VM-to-hypervisor transition. Split-mode ARM pays the
// paper's four overhead sources: the double trap, the full EL1 (plus VGIC,
// timer, EL2) state save, the Stage-2/trap toggles, and the VGIC read-out.
// VHE and x86 exits are a fraction of the cost.
func (k *KVM) exitToHost(p *sim.Proc, v *hyp.VCPU) {
	if !v.InGuest {
		panic(fmt.Sprintf("kvm: exitToHost for %v which is not in guest", v))
	}
	v.Span(p, "exit-to-host")
	defer v.EndSpan(p)
	pc := v.CPU
	cm := k.m.Cost
	switch {
	case k.m.Arch == cpu.X86:
		v.Charge(p, "VM exit (VMCS hardware switch)", cm.VMExitHW)
		pc.P.Trap()
	case k.vhe:
		v.Charge(p, "trap to EL2", cm.TrapToEL2)
		pc.P.Trap()
		v.Charge(p, cpu.SaveLabel[cpu.GP], cm.Class[cpu.GP].Save)
		pc.P.SaveState(v.Ctx, cpu.GP)
		pc.P.LoadState(k.hostCtx(pc), cpu.GP)
		pc.P.EnterHostKernel() // stays in EL2 under VHE
	default:
		v.Charge(p, "trap to EL2", cm.TrapToEL2)
		pc.P.Trap()
		for _, cls := range armAllClasses {
			if cls == cpu.VGIC {
				v.ChargeSpanned(p, gic.SpanSave, cpu.SaveLabel[cls], cm.Class[cls].Save)
			} else {
				v.Charge(p, cpu.SaveLabel[cls], cm.Class[cls].Save)
			}
		}
		pc.VIface.SaveImageInto(&v.VgicImage)
		pc.P.SaveState(v.Ctx, armAllClasses...)
		v.Charge(p, "disable Stage-2 and traps", cm.Stage2Toggle+cm.TrapToggle)
		pc.P.DisableStage2()
		pc.P.DisableTraps()
		v.Charge(p, "restore host context", k.c.HostCtxRestore)
		pc.P.LoadState(k.hostCtx(pc), hostClasses...)
		v.Charge(p, "eret to host EL1", cm.ERET)
		pc.P.EnterHostKernel()
		k.resident[pc.P.ID()] = nil
		v.Resident = false
	}
	v.InGuest = false
}

// enterGuest is the hypervisor-to-VM transition.
func (k *KVM) enterGuest(p *sim.Proc, v *hyp.VCPU) {
	if v.InGuest {
		panic(fmt.Sprintf("kvm: enterGuest for %v which is already in guest", v))
	}
	v.Span(p, "enter-guest")
	defer v.EndSpan(p)
	pc := v.CPU
	cm := k.m.Cost
	switch {
	case k.m.Arch == cpu.X86:
		cur := k.resident[pc.P.ID()]
		if cur != v {
			v.Charge(p, "VMCS switch (vmclear/vmptrld)", cm.VMCSSwitch)
			if cur != nil {
				pc.P.SaveState(cur.Ctx, cpu.VMCS)
				cur.Resident = false
			}
			pc.P.LoadState(v.Ctx, cpu.VMCS)
			k.resident[pc.P.ID()] = v
			v.Resident = true
		}
		v.Charge(p, "VM entry (VMCS hardware switch)", cm.VMEntryHW)
		pc.P.EnterGuestKernel()
	case k.vhe:
		cur := k.resident[pc.P.ID()]
		if cur != v {
			// Switching to a different VM under VHE still context
			// switches the guest-owned state (but never the host's,
			// which lives in EL2 registers).
			if cur != nil {
				for _, cls := range armAllClasses[1:] { // GP already saved at exit
					if cls == cpu.VGIC {
						v.ChargeSpanned(p, gic.SpanSave, cpu.SaveOtherVMLabel[cls], cm.Class[cls].Save)
					} else {
						v.Charge(p, cpu.SaveOtherVMLabel[cls], cm.Class[cls].Save)
					}
				}
				pc.VIface.SaveImageInto(&cur.VgicImage)
				pc.P.SaveState(cur.Ctx, armAllClasses[1:]...)
				cur.Resident = false
			}
			for _, cls := range armAllClasses[1:] {
				if cls == cpu.VGIC {
					v.ChargeSpanned(p, gic.SpanRestore, cpu.RestoreLabel[cls], cm.Class[cls].Restore)
				} else {
					v.Charge(p, cpu.RestoreLabel[cls], cm.Class[cls].Restore)
				}
			}
			pc.VIface.LoadImage(v.VgicImage)
			pc.P.LoadState(v.Ctx, armAllClasses[1:]...)
			k.resident[pc.P.ID()] = v
			v.Resident = true
		}
		v.Charge(p, cpu.RestoreLabel[cpu.GP], cm.Class[cpu.GP].Restore)
		pc.P.SaveState(k.hostCtx(pc), cpu.GP)
		pc.P.LoadState(v.Ctx, cpu.GP)
		v.Charge(p, "eret to guest", cm.ERET)
		pc.P.EnterGuestKernel()
		pc.P.RequireGuestRunnable(v.Ctx)
	default:
		v.Charge(p, "hvc to EL2", cm.TrapToEL2)
		pc.P.Trap()
		v.Charge(p, "save host context", k.c.HostCtxSave)
		pc.P.SaveState(k.hostCtx(pc), hostClasses...)
		v.Charge(p, "enable Stage-2 and traps", cm.Stage2Toggle+cm.TrapToggle)
		pc.P.EnableStage2()
		pc.P.EnableTraps()
		for _, cls := range armAllClasses {
			if cls == cpu.VGIC {
				v.ChargeSpanned(p, gic.SpanRestore, cpu.RestoreLabel[cls], cm.Class[cls].Restore)
			} else {
				v.Charge(p, cpu.RestoreLabel[cls], cm.Class[cls].Restore)
			}
		}
		pc.VIface.LoadImage(v.VgicImage)
		pc.P.LoadState(v.Ctx, armAllClasses...)
		v.Charge(p, "eret to guest", cm.ERET)
		pc.P.EnterGuestKernel()
		k.resident[pc.P.ID()] = v
		v.Resident = true
		pc.P.RequireGuestRunnable(v.Ctx)
	}
	v.InGuest = true
	v.Emit(obs.GuestEnter, "", 0)
}

// EnterGuest implements hyp.Hypervisor. For x86 the first entry loads the
// VMCS; for VHE the first entry loads the guest's full state.
func (k *KVM) EnterGuest(p *sim.Proc, v *hyp.VCPU) { k.enterGuest(p, v) }

// ExitGuest implements hyp.Hypervisor.
func (k *KVM) ExitGuest(p *sim.Proc, v *hyp.VCPU) { k.exitToHost(p, v) }

// --- guest operations --------------------------------------------------------

// Hypercall implements hyp.Hypervisor: the null hypercall round trip,
// Table II row 1.
func (k *KVM) Hypercall(p *sim.Proc, v *hyp.VCPU) {
	v.CountExit("hypercall")
	v.Span(p, "hypercall")
	defer v.EndSpan(p)
	k.exitToHost(p, v)
	v.Charge(p, "hypercall handler", k.c.HostHandler)
	k.enterGuest(p, v)
}

// GICTrap implements hyp.Hypervisor: emulated interrupt-controller access,
// Table II row 2. KVM's vgic emulation runs in the host (EL1 on ARM), so
// the full world switch is paid around it.
func (k *KVM) GICTrap(p *sim.Proc, v *hyp.VCPU) {
	v.CountExit("mmio")
	v.Span(p, "gic-trap")
	defer v.EndSpan(p)
	if k.m.Arch == cpu.X86 {
		k.exitToHost(p, v)
		v.Charge(p, "APIC access emulation", k.c.APICAccess)
		k.enterGuest(p, v)
		return
	}
	v.Charge(p, "MMIO syndrome decode", k.c.MMIODecode)
	k.exitToHost(p, v)
	v.Charge(p, "GIC distributor emulation", k.c.GICDistEmulate)
	k.enterGuest(p, v)
}

// SendVirtIPI implements hyp.Hypervisor: Table II row 3, sender half.
func (k *KVM) SendVirtIPI(p *sim.Proc, v *hyp.VCPU, target *hyp.VCPU) {
	v.CountExit("sgi")
	v.Span(p, "send-virt-ipi")
	defer v.EndSpan(p)
	k.exitToHost(p, v)
	v.Charge(p, "SGI emulation (mark pending)", k.c.SGIEmulate)
	target.PostSoft(hyp.VirqGuestIPI)
	k.m.SendIPI(p, target.CPU.P.ID(), hyp.SGIVirtIPI)
	k.enterGuest(p, v)
}

// HandlePhysIRQ implements hyp.Hypervisor: a physical interrupt while in
// guest forces a full exit to the host, which acks the interrupt, updates
// the vgic, and re-enters.
func (k *KVM) HandlePhysIRQ(p *sim.Proc, v *hyp.VCPU, d gic.Delivery) {
	v.CountExit("irq")
	v.Span(p, "phys-irq")
	defer v.EndSpan(p)
	k.exitToHost(p, v)
	v.Charge(p, "host GIC ack/EOI", k.c.PhysIRQAck)
	for _, virq := range hyp.TranslateDelivery(v, d) {
		v.Charge(p, "virq inject", k.c.VirqInject)
		v.InjectVirq(virq)
	}
	k.enterGuest(p, v)
	v.Charge(p, "guest IRQ entry", k.c.GuestIRQEntry)
}

// BlockInGuest implements hyp.Hypervisor: guest WFI/HLT. The VCPU thread
// blocks in the host until a kick IPI arrives, then is woken and re-enters
// the guest.
func (k *KVM) BlockInGuest(p *sim.Proc, v *hyp.VCPU) {
	v.CountExit("wfi")
	v.Span(p, "wfi-block")
	defer v.EndSpan(p)
	k.exitToHost(p, v)
	v.Charge(p, "host: deschedule VCPU thread", k.c.BlockVCPU)
	d := v.CPU.IRQ.Recv(p)
	if d.At > 0 {
		k.m.Tel.ObserveIRQLatency(v.CPU.P.ID(), p.Now()-d.At)
	}
	// The wake is a host-scheduler context switch from the idle thread
	// back onto the VCPU thread: the PCPU changes VM context.
	v.Emit(obs.VMSwitch, "vcpu-wake", int64(d.IRQ))
	v.Charge(p, "host IRQ entry + VCPU thread wake", k.c.VCPUWake)
	v.Charge(p, "host GIC ack/EOI", k.c.PhysIRQAck)
	for _, virq := range hyp.TranslateDelivery(v, d) {
		v.Charge(p, "virq inject", k.c.VirqInject)
		v.InjectVirq(virq)
	}
	k.enterGuest(p, v)
	v.Charge(p, "guest IRQ entry", k.c.GuestIRQEntry)
}

// CompleteVirq implements hyp.Hypervisor: Table II row 4. ARM hardware
// completes virtual interrupts with no trap; x86 without vAPIC traps on
// the EOI write.
func (k *KVM) CompleteVirq(p *sim.Proc, v *hyp.VCPU, virq gic.IRQ) {
	cm := k.m.Cost
	v.Span(p, "virq-complete")
	defer v.EndSpan(p)
	if k.m.Arch == cpu.ARM {
		v.Charge(p, "virq ack+complete (no trap)", cm.VirqCompleteHW)
		v.CPU.VIface.Complete(virq)
		v.CPU.VIface.RefillFromOverflow()
		return
	}
	if k.m.VAPIC {
		v.Charge(p, "virq ack+complete (vAPIC)", cm.VirqCompleteHW)
		v.CPU.LAPIC.EOIVirtual(virq)
		return
	}
	v.CountExit("eoi")
	k.exitToHost(p, v)
	v.Charge(p, "EOI emulation", k.c.EOIEmulate)
	v.CPU.LAPIC.EOIVirtual(virq)
	k.enterGuest(p, v)
}

// SwitchVM implements hyp.Hypervisor: Table II row 5. KVM switches VMs by
// exiting to the host, context switching VCPU threads in the host
// scheduler, and entering the other VM.
func (k *KVM) SwitchVM(p *sim.Proc, from, to *hyp.VCPU) {
	if from.CPU != to.CPU {
		panic("kvm: SwitchVM across physical CPUs")
	}
	from.CountExit("preempt")
	from.Emit(obs.VMSwitch, "sched", int64(to.VM.VMID))
	from.Span(p, "vm-switch")
	defer from.EndSpan(p)
	k.exitToHost(p, from)
	from.Charge(p, "host scheduler: thread switch", k.c.HostSchedSwitch)
	k.enterGuest(p, to)
}

// NotifyGuest implements hyp.Hypervisor: the vhost backend signals the VM
// via irqfd — update the vgic pending state and kick the VCPU with a
// physical IPI (I/O Latency In, first leg). from is ignored: KVM backends
// are host threads, not VCPUs.
func (k *KVM) NotifyGuest(p *sim.Proc, _ *hyp.VCPU, v *hyp.VCPU, virq gic.IRQ) {
	v.Emit(obs.IOKick, "irqfd", int64(virq))
	v.Span(p, "notify-guest")
	defer v.EndSpan(p)
	v.Charge(p, "irqfd + vgic update", k.c.Irqfd)
	v.Charge(p, "notify path (softirq/eventfd)", k.c.NotifyResidual)
	v.PostSoft(virq)
	k.m.SendIPI(p, v.CPU.P.ID(), hyp.SGIKick)
}

// KickBackend implements hyp.Hypervisor: a virtio kick (I/O Latency Out).
// The MMIO write exits to the host, which signals the vhost worker's
// eventfd; the worker wakes on its own CPU.
func (k *KVM) KickBackend(p *sim.Proc, v *hyp.VCPU, b *hyp.Backend) {
	v.CountExit("mmio-kick")
	v.Emit(obs.IOKick, "ioeventfd", int64(b.CPU.P.ID()))
	v.Span(p, "kick-backend")
	defer v.EndSpan(p)
	k.exitToHost(p, v)
	v.Charge(p, "ioeventfd signal", k.c.Ioeventfd)
	if k.c.KickNeedsIPI {
		// ARM: the vhost worker sleeps; waking it takes a resched IPI
		// plus the host IRQ-entry/scheduler path on the backend CPU.
		v.Charge(p, "resched IPI to backend CPU", k.m.Cost.IPISend)
		b.Inbox.SendAfter(sim.Time(k.m.Cost.IPIWire+k.c.BackendWake), p.Now())
	} else {
		// x86 measurement: the eventfd wake hits a hot vhost worker;
		// Table II's 560-cycle I/O Latency Out is essentially the VM
		// exit plus the signal itself.
		b.Inbox.SendAfter(0, p.Now())
	}
	k.enterGuest(p, v)
}

// BackendDispatch implements hyp.Hypervisor. KVM's backend wake latency is
// modelled on the kick path (KickBackend's SendAfter), so nothing remains
// to pay here.
func (k *KVM) BackendDispatch(*sim.Proc, *hyp.Backend) {}

// Stage2Fault implements hyp.Hypervisor: the fault exits to the host,
// which allocates a page (get_user_pages on the QEMU mapping), installs
// the Stage-2 translation, and re-enters the guest.
func (k *KVM) Stage2Fault(p *sim.Proc, v *hyp.VCPU, ipa mem.IPA) {
	v.CountExit("stage2-fault")
	v.Emit(obs.Stage2Fault, "", int64(ipa))
	v.Span(p, "stage2-fault")
	defer v.EndSpan(p)
	v.Charge(p, "stage-2 fault (hw)", k.m.Cost.Stage2FaultHW)
	k.exitToHost(p, v)
	v.Charge(p, "host: allocate + map page", k.c.FaultWork)
	page := ipa &^ (mem.PageSize - 1)
	k.nextPA += mem.PageSize
	if err := v.VM.S2.Map(page, k.nextPA, mem.PermRWX); err != nil {
		panic(fmt.Sprintf("kvm: stage-2 map: %v", err))
	}
	k.enterGuest(p, v)
}

var _ hyp.Hypervisor = (*KVM)(nil)
