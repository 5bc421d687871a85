// Package micro implements the paper's seven microbenchmarks (Table I) as
// guest code running on the simulated platforms, using the same
// measurement discipline as §IV: pinned VCPUs, measurements from inside
// the VM, virtual interrupts kept off the measured VCPUs, warm-up
// iterations before timing.
//
// Each benchmark returns per-operation cycle counts suitable for direct
// comparison with Table II.
package micro

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/sched"
	"armvirt/internal/sim"
	"armvirt/internal/stats"
)

// Iterations is the default measured-iteration count. The simulator is
// deterministic, so a handful of iterations suffices to confirm
// steady-state behaviour.
const Iterations = 16

// Warmup iterations run before timing starts (populating residency state,
// as the real benchmark's warm-up populates caches).
const Warmup = 2

// Result is one microbenchmark measurement.
type Result struct {
	// Name is the Table I benchmark name.
	Name string
	// Cycles is the mean per-operation cost.
	Cycles cpu.Cycles
	// Min and Max bound the per-iteration samples.
	Min, Max cpu.Cycles
	// CV is the coefficient of variation across iterations. The paper's
	// methodology (§IV) works hard to keep this near zero on real
	// hardware; the simulator's determinism makes it exactly zero for
	// the steady-state benchmarks.
	CV float64
}

func (r Result) String() string {
	return fmt.Sprintf("%-26s %8d cycles", r.Name, r.Cycles)
}

func summarize(name string, samples []cpu.Cycles) Result {
	if len(samples) == 0 {
		panic("micro: no samples for " + name)
	}
	s := stats.New()
	for _, x := range samples {
		s.Add(float64(x))
	}
	return Result{
		Name:   name,
		Cycles: cpu.Cycles(s.Mean()),
		Min:    cpu.Cycles(s.Min()),
		Max:    cpu.Cycles(s.Max()),
		CV:     s.CV(),
	}
}

// layout is §III's CPU partitioning: the measured VM's VCPUs on a
// dedicated set of PCPUs, the hypervisor-side helpers (host threads /
// Dom0) on the rest.
var (
	layout     = sched.PaperLayout()
	guestPin   = layout.Guest
	backendPin = layout.Backend
)

// Hypercall measures the bidirectional base transition cost: VM to
// hypervisor and back with a null handler (Table II row 1).
func Hypercall(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:1])
	v := vm.VCPUs[0]
	var samples []cpu.Cycles
	hyp.Run(h, "hypercall-bench", v, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < Warmup; i++ {
			g.Hypercall(p)
		}
		for i := 0; i < Iterations; i++ {
			t0 := p.Now()
			g.Hypercall(p)
			samples = append(samples, cpu.Cycles(p.Now()-t0))
		}
	})
	h.Machine().Eng.Run()
	return summarize("Hypercall", samples)
}

// InterruptControllerTrap measures a trapped access to the emulated
// interrupt controller (Table II row 2).
func InterruptControllerTrap(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:1])
	v := vm.VCPUs[0]
	var samples []cpu.Cycles
	hyp.Run(h, "gictrap-bench", v, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < Warmup; i++ {
			g.GICTrap(p)
		}
		for i := 0; i < Iterations; i++ {
			t0 := p.Now()
			g.GICTrap(p)
			samples = append(samples, cpu.Cycles(p.Now()-t0))
		}
	})
	h.Machine().Eng.Run()
	return summarize("Interrupt Controller Trap", samples)
}

// VirtualIPI measures the latency from one VCPU issuing a virtual IPI
// until another VCPU, running VM code on a different PCPU, handles it
// (Table II row 3).
func VirtualIPI(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:2])
	sender, receiver := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	handled := sim.NewQueue[sim.Time](eng, "ipi-handled")
	total := Warmup + Iterations

	hyp.Run(h, "ipi-receiver", receiver, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			virq := g.WaitVirq(p, true) // spin in guest: both PCPUs execute VM code
			at := p.Now()
			g.Complete(p, virq)
			handled.Send(at)
		}
	})

	var samples []cpu.Cycles
	hyp.Run(h, "ipi-sender", sender, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			t0 := p.Now()
			g.SendIPI(p, receiver)
			at := handled.Recv(p)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(at-t0))
			}
		}
	})
	eng.Run()
	return summarize("Virtual IPI", samples)
}

// VirtualIRQCompletion measures the guest acknowledging and completing a
// virtual interrupt (Table II row 4). The interrupt is staged directly
// into the VCPU's virtual interrupt state so only the completion path is
// timed, as the paper's driver does.
func VirtualIRQCompletion(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:1])
	v := vm.VCPUs[0]
	var samples []cpu.Cycles
	hyp.Run(h, "virqdone-bench", v, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < Warmup+Iterations; i++ {
			v.InjectVirq(hyp.VirqGuestIPI)
			virq := g.WaitVirq(p, true) // already pending: returns without exiting
			t0 := p.Now()
			g.Complete(p, virq)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(p.Now()-t0))
			}
		}
	})
	h.Machine().Eng.Run()
	return summarize("Virtual IRQ Completion", samples)
}

// VMSwitch measures switching between two VMs on the same physical core
// (Table II row 5).
func VMSwitch(h hyp.Hypervisor) Result {
	vm1 := h.NewVM("vm1", guestPin[:1])
	vm2 := h.NewVM("vm2", guestPin[:1]) // same PCPU: oversubscribed core
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	var samples []cpu.Cycles
	h.Machine().Eng.Go("vmswitch-bench", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		cur, next := a, b
		for i := 0; i < Warmup+Iterations; i++ {
			t0 := p.Now()
			h.SwitchVM(p, cur, next)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(p.Now()-t0))
			}
			cur, next = next, cur
		}
		h.ExitGuest(p, cur)
	})
	h.Machine().Eng.Run()
	return summarize("VM Switch", samples)
}

// backendFor builds the I/O backend execution context: a vhost worker
// thread for Type 2, the Dom0 netback (with a freshly created Dom0) for
// Type 1.
func backendFor(h hyp.Hypervisor) *hyp.Backend {
	m := h.Machine()
	b := hyp.NewBackend(m.Eng, "net-backend", m.CPUs[backendPin[0]])
	if h.HType() == hyp.Type1 {
		type dom0er interface{ NewDom0(pin []int) *hyp.VM }
		dom0 := h.(dom0er).NewDom0(backendPin[:1])
		b.Dom0VCPU = dom0.VCPUs[0]
	}
	return b
}

// IOLatencyOut measures the latency from a driver in the VM signaling the
// virtual I/O device until the backend receives the signal (Table II
// row 6). For KVM this is the trap to the host plus the vhost wake; for
// Xen it is the trap, the event channel to Dom0, and the idle-domain
// switch that wakes Dom0.
func IOLatencyOut(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:1])
	v := vm.VCPUs[0]
	b := backendFor(h)
	eng := h.Machine().Eng
	received := sim.NewQueue[sim.Time](eng, "kick-received")
	total := Warmup + Iterations

	if b.Dom0VCPU != nil {
		// Dom0 netback: idle until the event channel fires.
		hyp.Run(h, "dom0-netback", b.Dom0VCPU, func(p *sim.Proc, g *hyp.Guest) {
			for i := 0; i < total; i++ {
				virq := g.WaitVirq(p, false)
				h.BackendDispatch(p, b)
				if _, ok := b.Inbox.TryRecv(); !ok {
					panic("micro: evtchn fired without ring entry")
				}
				received.Send(p.Now())
				g.Complete(p, virq)
			}
		})
	} else {
		// vhost worker thread.
		eng.Go("vhost-worker", func(p *sim.Proc) {
			for i := 0; i < total; i++ {
				b.Inbox.Recv(p)
				h.BackendDispatch(p, b)
				received.Send(p.Now())
			}
		})
	}

	var samples []cpu.Cycles
	hyp.Run(h, "io-out-guest", v, func(p *sim.Proc, g *hyp.Guest) {
		p.Sleep(1000) // let the backend reach its idle state
		for i := 0; i < total; i++ {
			t0 := p.Now()
			g.KickBackend(p, b)
			at := received.Recv(p)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(at-t0))
			}
			// Let the backend fully settle into the idle domain before
			// the next kick (the paper's iterations are similarly
			// spaced; kicking mid-deschedule would measure a hybrid
			// path).
			p.Sleep(8000)
		}
	})
	eng.Run()
	return summarize("I/O Latency Out", samples)
}

// IOLatencyIn measures the latency from the virtual I/O device signaling
// the VM until the VM receives the corresponding virtual interrupt
// (Table II row 7). The guest idles (WFI), so the wake path is taken:
// VCPU-thread wake for KVM, idle-domain switch for Xen.
func IOLatencyIn(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:1])
	v := vm.VCPUs[0]
	b := backendFor(h)
	eng := h.Machine().Eng
	delivered := sim.NewQueue[sim.Time](eng, "virq-delivered")
	sent := sim.NewQueue[sim.Time](eng, "notify-sent")
	total := Warmup + Iterations

	if b.Dom0VCPU != nil {
		hyp.Run(h, "dom0-notifier", b.Dom0VCPU, func(p *sim.Proc, g *hyp.Guest) {
			for i := 0; i < total; i++ {
				p.Sleep(3000) // guest reaches WFI idle between rounds
				t0 := p.Now()
				h.NotifyGuest(p, b.Dom0VCPU, v, hyp.VirqVirtioNet)
				sent.Send(t0)
				delivered.Recv(p)
			}
		})
	} else {
		eng.Go("vhost-notifier", func(p *sim.Proc) {
			for i := 0; i < total; i++ {
				p.Sleep(3000)
				t0 := p.Now()
				h.NotifyGuest(p, nil, v, hyp.VirqVirtioNet)
				sent.Send(t0)
				delivered.Recv(p)
			}
		})
	}

	var samples []cpu.Cycles
	hyp.Run(h, "io-in-guest", v, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			virq := g.WaitVirq(p, false)
			at := p.Now()
			t0 := sent.Recv(p)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(at-t0))
			}
			g.Complete(p, virq)
			delivered.Send(at)
		}
	})
	eng.Run()
	return summarize("I/O Latency In", samples)
}

// Names lists the seven benchmarks in Table II order.
var Names = []string{
	"Hypercall",
	"Interrupt Controller Trap",
	"Virtual IPI",
	"Virtual IRQ Completion",
	"VM Switch",
	"I/O Latency Out",
	"I/O Latency In",
}

// RunAll executes the full suite, building a fresh platform for each
// benchmark via newHyp (measurements must not share machine state).
func RunAll(newHyp func() hyp.Hypervisor) []Result {
	return []Result{
		Hypercall(newHyp()),
		InterruptControllerTrap(newHyp()),
		VirtualIPI(newHyp()),
		VirtualIRQCompletion(newHyp()),
		VMSwitch(newHyp()),
		IOLatencyOut(newHyp()),
		IOLatencyIn(newHyp()),
	}
}
