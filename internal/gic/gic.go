// Package gic models the ARM Generic Interrupt Controller with the GICv2
// virtualization extensions the paper's hardware provides, plus a minimal
// x86 local-APIC counterpart (with and without vAPIC).
//
// Three pieces matter for the paper's measurements:
//
//   - The distributor routes physical interrupts (SGIs = IPIs, PPIs = per-CPU
//     peripherals like timers, SPIs = shared peripherals like the NIC) to
//     physical CPUs. While a VM is running, *all* physical interrupts are
//     taken to EL2 and must be handled by the hypervisor.
//   - The physical CPU interface is where the hypervisor acknowledges and
//     completes (EOIs) physical interrupts.
//   - The virtual CPU interface exposes list registers the hypervisor
//     programs to inject virtual interrupts; the guest then acknowledges and
//     completes them with *no trap* — the 71-cycle row of Table II.
package gic

import (
	"fmt"

	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// IRQ is an interrupt number in GIC numbering: 0-15 SGI, 16-31 PPI, 32+ SPI.
type IRQ int

// Interrupt number ranges.
const (
	FirstSGI IRQ = 0
	LastSGI  IRQ = 15
	FirstPPI IRQ = 16
	LastPPI  IRQ = 31
	FirstSPI IRQ = 32
)

// Profiler span names for interrupt-controller state work: hypervisors
// open these around their vgic save/restore sequences so the profiler's
// breakdowns group the GIC share of a world switch under one phase.
const (
	SpanSave    = "gic-save"
	SpanRestore = "gic-restore"
)

// Class returns "SGI", "PPI" or "SPI".
func (i IRQ) Class() string {
	switch {
	case i <= LastSGI:
		return "SGI"
	case i <= LastPPI:
		return "PPI"
	default:
		return "SPI"
	}
}

// Delivery is a physical interrupt arriving at a physical CPU. The machine
// layer turns this into a trap to the hypervisor when the CPU is running a
// VM.
type Delivery struct {
	CPU int
	IRQ IRQ
	// At is the simulated time the delivery reached the CPU, stamped by
	// the distributor (or the x86 machine layer) at the moment it lands.
	// Receivers subtract it from their wake time to measure IRQ-delivery
	// latency — the interval an interrupt waited for its handler.
	At sim.Time
}

// Distributor is the GIC distributor: global interrupt state and routing.
type Distributor struct {
	eng    *sim.Engine
	nCPU   int
	wire   sim.Time // propagation latency to the target CPU
	sink   func(Delivery)
	enable map[IRQ]bool
	target map[IRQ]int // SPI routing target CPU
	// Rec, when non-nil, receives a PhysIRQ event for every delivery the
	// distributor hands to a CPU (set via hw.Machine.SetRecorder).
	Rec *obs.Recorder
	// Tel, when non-nil, counts every delivery in the machine's telemetry
	// sampler (set via hw.Machine.SetSampler alongside Rec).
	Tel *telemetry.Sampler
	// PartOf, when non-nil, maps a CPU to its engine partition: the
	// machine runs on a partitioned engine (conservative partitioned
	// simulation) and every delivery is routed as a cross-partition
	// message so it executes — and emits its PhysIRQ event — on the
	// target CPU's partition. The wire latency must be >= the engine's
	// lookahead (machines derive both from the cost model's IPIWire).
	PartOf func(cpu int) sim.PartID
}

// deliver stamps the delivery for observability and hands it to the sink.
// It runs on the target CPU's partition, named by at, whose clock stamps
// the event and the telemetry count.
func (d *Distributor) deliver(at sim.Part, dv Delivery) {
	now := at.Now()
	dv.At = now
	d.Rec.Emit(now, obs.PhysIRQ, dv.CPU, "", -1, dv.IRQ.Class(), int64(dv.IRQ))
	d.Tel.Count(now, dv.CPU, telemetry.CtrGICDelivery, 1)
	d.sink(dv)
}

// send propagates a delivery from partition from to its target CPU after
// the wire latency. On a partitioned engine the delivery is a
// cross-partition message to the CPU's partition; otherwise both handles
// are partition 0 and the send is a local After.
func (d *Distributor) send(from sim.Part, dv Delivery) {
	to := d.eng.Part(d.partOf(dv.CPU))
	from.SendTo(to.ID(), d.wire, func() { d.deliver(to, dv) })
}

// partOf returns the engine partition CPU cpu lives on (0 when the
// distributor is not partitioned).
func (d *Distributor) partOf(cpu int) sim.PartID {
	if d.PartOf == nil {
		return 0
	}
	return d.PartOf(cpu)
}

// NewDistributor creates a distributor for nCPU physical CPUs. Deliveries
// are handed to sink after wire cycles of propagation delay.
func NewDistributor(eng *sim.Engine, nCPU int, wire sim.Time, sink func(Delivery)) *Distributor {
	return &Distributor{
		eng:    eng,
		nCPU:   nCPU,
		wire:   wire,
		sink:   sink,
		enable: make(map[IRQ]bool),
		target: make(map[IRQ]int),
	}
}

// NCPU returns the number of CPUs the distributor serves.
func (d *Distributor) NCPU() int { return d.nCPU }

// Enable marks an interrupt as forwardable.
func (d *Distributor) Enable(irq IRQ) { d.enable[irq] = true }

// Disable masks an interrupt.
func (d *Distributor) Disable(irq IRQ) { d.enable[irq] = false }

// Enabled reports whether the interrupt is enabled.
func (d *Distributor) Enabled(irq IRQ) bool { return d.enable[irq] }

// SetTarget routes an SPI to a CPU (GICD_ITARGETSR).
func (d *Distributor) SetTarget(irq IRQ, cpu int) {
	if irq < FirstSPI {
		panic(fmt.Sprintf("gic: SetTarget on %v (%s); only SPIs are routable", irq, irq.Class()))
	}
	d.checkCPU(cpu)
	d.target[irq] = cpu
}

// Target returns the routing target of an SPI (default CPU 0).
func (d *Distributor) Target(irq IRQ) int { return d.target[irq] }

// SendSGI dispatches a software-generated interrupt (IPI) from the
// process p to a CPU. The sender has already paid its ICC_SGI1R/GICD_SGIR
// write cost; propagation through the distribution fabric takes the wire
// latency, starting from p's partition.
func (d *Distributor) SendSGI(p *sim.Proc, to int, irq IRQ) {
	if irq > LastSGI {
		panic(fmt.Sprintf("gic: SendSGI with %v (%s)", irq, irq.Class()))
	}
	d.checkCPU(to)
	d.send(d.eng.Part(p.Part()), Delivery{CPU: to, IRQ: irq})
}

// RaisePPI delivers a private peripheral interrupt (e.g. a timer) to its
// CPU. The source is the CPU's own peripheral, so the raise happens on
// the CPU's partition.
func (d *Distributor) RaisePPI(cpu int, irq IRQ) {
	if irq < FirstPPI || irq > LastPPI {
		panic(fmt.Sprintf("gic: RaisePPI with %v (%s)", irq, irq.Class()))
	}
	d.checkCPU(cpu)
	d.send(d.eng.Part(d.partOf(cpu)), Delivery{CPU: cpu, IRQ: irq})
}

// RaiseSPI delivers a shared peripheral interrupt (e.g. the NIC) to its
// configured target CPU if enabled. Shared peripherals live on partition
// 0, so the raise happens there.
func (d *Distributor) RaiseSPI(irq IRQ) {
	if irq < FirstSPI {
		panic(fmt.Sprintf("gic: RaiseSPI with %v (%s)", irq, irq.Class()))
	}
	if !d.enable[irq] {
		return
	}
	d.send(d.eng.Part(0), Delivery{CPU: d.target[irq], IRQ: irq})
}

func (d *Distributor) checkCPU(cpu int) {
	if cpu < 0 || cpu >= d.nCPU {
		panic(fmt.Sprintf("gic: CPU %d out of range [0,%d)", cpu, d.nCPU))
	}
}
