package micro

import (
	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
)

// TracedOps lists the operations ProfileOp accepts.
var TracedOps = []string{"hypercall", "gictrap", "vmswitch", "virqcomplete", "stage2fault"}

// OpProfile is one operation's span profile: the Table III methodology
// generalized — the full phase tree the profiler recorded while the
// operation ran, with Profile.Leaves as the flat name→cycles breakdown.
type OpProfile struct {
	// Op is the TracedOps key ("hypercall", "vmswitch", ...).
	Op string
	// Name is the display name ("Hypercall", "VM Switch", ...).
	Name string
	// Platform is the hypervisor's display name ("KVM ARM", ...).
	Platform string
	// FreqMHz is the platform frequency, for cycle→time conversion.
	FreqMHz int
	// Cycles is the measured single-operation total. The profiler
	// attributes every cycle, so Profile.Total() == Cycles.
	Cycles cpu.Cycles
	// Profile is the span tree recorded over exactly the measured window.
	Profile *obs.Profile
}

// ProfileOp runs one operation (a TracedOps name) on a freshly built
// platform h with the span profiler attached: warm one operation to reach
// steady state, reset the profile, measure exactly one operation, then
// detach the recorder so teardown costs are not attributed. A recorder
// already attached to h's machine is used instead of a fresh one, so its
// event stream covers the same run up to the end of the measured window.
func ProfileOp(h hyp.Hypervisor, op string) OpProfile {
	switch op {
	case "hypercall":
		return profileSingle(h, op, "Hypercall", func(p *sim.Proc, g *hyp.Guest) {
			g.Hypercall(p)
		})
	case "gictrap":
		return profileSingle(h, op, "Interrupt Controller Trap", func(p *sim.Proc, g *hyp.Guest) {
			g.GICTrap(p)
		})
	case "virqcomplete":
		return profileSingle(h, op, "Virtual IRQ Completion", func(p *sim.Proc, g *hyp.Guest) {
			g.V.InjectVirq(hyp.VirqGuestIPI)
			virq := g.WaitVirq(p, true)
			g.Complete(p, virq)
		})
	case "stage2fault":
		return profileSingle(h, op, "Stage-2 Fault", func(p *sim.Proc, g *hyp.Guest) {
			g.TouchPage(p, 0x5000_0000, true)
		})
	case "vmswitch":
		return profileVMSwitch(h)
	}
	panic("micro: unknown profiled op " + op)
}

// attachRecorder returns the recorder of h's machine, first attaching one
// if there is none: only the span tree matters then, so its event rings
// are kept tiny instead of the tracing default.
func attachRecorder(h hyp.Hypervisor) *obs.Recorder {
	m := h.Machine()
	if m.Rec == nil {
		m.SetRecorder(obs.NewRecorder(m.NCPU(), 64))
	}
	return m.Rec
}

// profileSingle runs body once on a warm single-VCPU VM.
func profileSingle(h hyp.Hypervisor, op, name string, body func(p *sim.Proc, g *hyp.Guest)) OpProfile {
	m := h.Machine()
	rec := attachRecorder(h)
	vm := h.NewVM("vm0", guestPin[:1])
	v := vm.VCPUs[0]
	var cycles cpu.Cycles
	hyp.Run(h, "profiled-"+op, v, func(p *sim.Proc, g *hyp.Guest) {
		g.Hypercall(p) // warm residency state
		rec.ResetProfile()
		t0 := p.Now()
		body(p, g)
		cycles = cpu.Cycles(p.Now() - t0)
		// Detach before hyp.Run's teardown ExitGuest, so the profile
		// covers exactly the measured window.
		m.SetRecorder(nil)
	})
	m.Eng.Run()
	return OpProfile{
		Op: op, Name: name, Platform: h.Name(), FreqMHz: m.Cost.FreqMHz,
		Cycles: cycles, Profile: rec.Profile(),
	}
}

func profileVMSwitch(h hyp.Hypervisor) OpProfile {
	m := h.Machine()
	rec := attachRecorder(h)
	vm1 := h.NewVM("vm1", guestPin[:1])
	vm2 := h.NewVM("vm2", guestPin[:1])
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	var cycles cpu.Cycles
	m.Eng.Go("profiled-vmswitch", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		h.SwitchVM(p, a, b) // warm
		h.SwitchVM(p, b, a)
		rec.ResetProfile()
		t0 := p.Now()
		h.SwitchVM(p, a, b)
		cycles = cpu.Cycles(p.Now() - t0)
		m.SetRecorder(nil)
		h.ExitGuest(p, b)
	})
	m.Eng.Run()
	return OpProfile{
		Op: "vmswitch", Name: "VM Switch", Platform: h.Name(), FreqMHz: m.Cost.FreqMHz,
		Cycles: cycles, Profile: rec.Profile(),
	}
}
