package micro

import (
	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/sim"
)

// VirqDeliveryBusy measures the receiver-side cost of delivering a virtual
// interrupt to a VCPU that is busy executing guest code: the
// exit-ack-inject-reenter-vector path. This is not a Table II row; it is
// the per-event cost the application models (§V) need — the paper
// attributes the Apache and Memcached bottleneck to exactly this path
// concentrated on a single VCPU.
func VirqDeliveryBusy(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:2])
	sender, receiver := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	handled := sim.NewQueue[sim.Time](eng, "probe-handled")
	total := Warmup + Iterations

	var samples []cpu.Cycles
	hyp.Run(h, "probe-receiver", receiver, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			// Busy in guest: the delivery interrupts real work.
			d := receiver.CPU.IRQ.Recv(p)
			t0 := p.Now()
			h.HandlePhysIRQ(p, receiver, d)
			virq := g.WaitVirq(p, true)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(p.Now()-t0))
			}
			g.Complete(p, virq)
			handled.Send(p.Now())
		}
	})
	hyp.Run(h, "probe-sender", sender, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			g.SendIPI(p, receiver)
			handled.Recv(p)
		}
	})
	eng.Run()
	return summarize("Virq Delivery (busy guest)", samples)
}

// PathCosts summarizes the simulated platform's primitive path costs for
// consumption by the application workload models. All values in cycles on
// the platform's clock.
type PathCosts struct {
	// Label is the platform name.
	Label string
	// FreqMHz converts to wall time.
	FreqMHz int
	// Type1 is true for Xen.
	Type1 bool
	// The Table II rows.
	Hypercall    cpu.Cycles
	GICTrap      cpu.Cycles
	VirtIPI      cpu.Cycles
	VirqComplete cpu.Cycles
	VMSwitch     cpu.Cycles
	IOOut        cpu.Cycles
	IOIn         cpu.Cycles
	// VirqDeliverBusy is the probe above.
	VirqDeliverBusy cpu.Cycles
}

// Micros converts cycles to microseconds on this platform.
func (pc PathCosts) Micros(c cpu.Cycles) float64 {
	return float64(c) / float64(pc.FreqMHz)
}

// MeasurePathCosts runs the suite and the probes against fresh platforms
// from newHyp and assembles the PathCosts the workload models consume.
func MeasurePathCosts(newHyp func() hyp.Hypervisor) PathCosts {
	probe := newHyp()
	pc := PathCosts{
		Label:   probe.Name(),
		FreqMHz: probe.Machine().Cost.FreqMHz,
		Type1:   probe.HType() == hyp.Type1,
	}
	for _, r := range RunAll(newHyp) {
		switch r.Name {
		case "Hypercall":
			pc.Hypercall = r.Cycles
		case "Interrupt Controller Trap":
			pc.GICTrap = r.Cycles
		case "Virtual IPI":
			pc.VirtIPI = r.Cycles
		case "Virtual IRQ Completion":
			pc.VirqComplete = r.Cycles
		case "VM Switch":
			pc.VMSwitch = r.Cycles
		case "I/O Latency Out":
			pc.IOOut = r.Cycles
		case "I/O Latency In":
			pc.IOIn = r.Cycles
		}
	}
	pc.VirqDeliverBusy = VirqDeliveryBusy(newHyp()).Cycles
	return pc
}
