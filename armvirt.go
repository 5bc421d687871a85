// Package armvirt reproduces the measurement study "ARM Virtualization:
// Performance and Architectural Implications" (Dall, Li, Lim, Nieh,
// Koloventzos — ISCA 2016) as a deterministic, cycle-accounted simulation.
//
// The package builds simulated versions of the paper's two servers (an
// ARMv8 HP Moonshot m400 and an x86 Dell r320), runs the paper's KVM and
// Xen hypervisor designs on them — including split-mode KVM ARM, Xen with
// Dom0 and the idle domain, and the ARMv8.1 VHE configuration of §VI — and
// regenerates every table and figure of the evaluation:
//
//   - Table II: the seven microbenchmarks (hypercall, interrupt controller
//     trap, virtual IPI, virtual IRQ completion, VM switch, I/O latency).
//   - Table III: the KVM ARM hypercall register save/restore breakdown.
//   - Table V: the netperf TCP_RR latency decomposition.
//   - Figure 4: normalized application performance for nine workloads.
//   - The in-text virtual-interrupt distribution experiment and the VHE
//     projection.
//
// Quick start:
//
//	sys := armvirt.New(armvirt.KVMARM)
//	for _, r := range sys.RunMicrobenchmarks() {
//	    fmt.Printf("%-28s %6d cycles\n", r.Name, r.Cycles)
//	}
//	fmt.Print(armvirt.TableII().Render())
package armvirt

import (
	"fmt"

	"armvirt/internal/bench"
	"armvirt/internal/hyp"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// Kind selects a hypervisor/architecture configuration.
type Kind int

// The five platform configurations.
const (
	// KVMARM is split-mode KVM on the ARMv8 server (the paper's
	// baseline Type 2 configuration).
	KVMARM Kind = iota
	// XenARM is Xen on the ARMv8 server (Type 1, with Dom0).
	XenARM
	// KVMX86 is KVM on the x86 server.
	KVMX86
	// XenX86 is Xen on the x86 server.
	XenX86
	// KVMARMVHE is KVM ARM under the ARMv8.1 Virtualization Host
	// Extensions (§VI): the host kernel runs in EL2.
	KVMARMVHE
)

// Kinds lists every configuration.
var Kinds = []Kind{KVMARM, XenARM, KVMX86, XenX86, KVMARMVHE}

// String returns the Table II column label.
func (k Kind) String() string {
	switch k {
	case KVMARM:
		return "KVM ARM"
	case XenARM:
		return "Xen ARM"
	case KVMX86:
		return "KVM x86"
	case XenX86:
		return "Xen x86"
	case KVMARMVHE:
		return "KVM ARM (VHE)"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FreqMHz returns the platform clock rate for this configuration: the x86
// server's for the x86 Kinds, the ARM server's for everything else. This
// is the single place the clock choice lives, so a new Kind cannot
// silently pick up the wrong frequency.
func (k Kind) FreqMHz() int {
	switch k {
	case KVMX86, XenX86:
		return platform.X86FreqMHz
	default:
		return platform.ARMFreqMHz
	}
}

func (k Kind) factory() func() hyp.Hypervisor {
	switch k {
	case KVMARM:
		return func() hyp.Hypervisor { return platform.NewKVMARM().Hyp() }
	case XenARM:
		return func() hyp.Hypervisor { return platform.NewXenARM().Hyp() }
	case KVMX86:
		return func() hyp.Hypervisor { return platform.NewKVMX86().Hyp() }
	case XenX86:
		return func() hyp.Hypervisor { return platform.NewXenX86().Hyp() }
	case KVMARMVHE:
		return func() hyp.Hypervisor { return platform.NewKVMARMVHE().Hyp() }
	}
	panic("armvirt: unknown Kind")
}

// System is one simulated hypervisor platform ready to run experiments.
// Each experiment internally builds fresh machine state, so a System is
// reusable and all results are deterministic.
type System struct {
	kind Kind
}

// New creates a System for the given configuration.
func New(kind Kind) *System { return &System{kind: kind} }

// Kind returns the configuration.
func (s *System) Kind() Kind { return s.kind }

// Name returns the display label.
func (s *System) Name() string { return s.kind.String() }

// MicroResult is one microbenchmark measurement.
type MicroResult struct {
	// Name is the Table I benchmark name.
	Name string
	// Cycles is the mean per-operation cycle count (comparable to
	// Table II).
	Cycles int64
	// Micros is the same in wall time on the platform's clock.
	Micros float64
}

// RunMicrobenchmarks executes the seven Table I microbenchmarks and
// returns them in Table II order.
func (s *System) RunMicrobenchmarks() []MicroResult {
	freq := float64(s.kind.FreqMHz())
	var out []MicroResult
	for _, r := range micro.RunAll(s.kind.factory()) {
		out = append(out, MicroResult{
			Name:   r.Name,
			Cycles: int64(r.Cycles),
			Micros: float64(r.Cycles) / freq,
		})
	}
	return out
}

// BreakdownStep is one attributed component of an operation's cost.
type BreakdownStep struct {
	Name   string
	Cycles int64
}

// HypercallBreakdown runs a profiled hypercall and returns the Table III
// style attribution: where every cycle of the VM-to-hypervisor round trip
// goes.
func (s *System) HypercallBreakdown() []BreakdownStep {
	var out []BreakdownStep
	for _, l := range micro.ProfileOp(s.kind.factory()(), "hypercall").Profile.Leaves() {
		out = append(out, BreakdownStep{Name: l.Name, Cycles: l.Cycles})
	}
	return out
}

// PathCosts returns the platform's composed primitive path costs, the
// inputs the application models consume.
func (s *System) PathCosts() micro.PathCosts {
	return micro.MeasurePathCosts(s.kind.factory())
}

// TCPRR runs the netperf TCP_RR simulation in a VM on this platform.
func (s *System) TCPRR() workload.TCPRRResult {
	return workload.TCPRRVirt(s.kind.factory()(), workload.DefaultParams())
}

// TCPRRNativeARM runs the netperf TCP_RR simulation on the bare ARM server
// (the Table V baseline).
func TCPRRNativeARM() workload.TCPRRResult {
	return workload.TCPRRNative(platform.ARMMachine(), workload.DefaultParams())
}

// --- whole-artifact regeneration ------------------------------------------

// TableII regenerates Table II across the paper's four platforms.
func TableII() bench.TableIIResult { return bench.RunTableII() }

// TableIII regenerates the Table III hypercall breakdown.
func TableIII() bench.TableIIIResult { return bench.RunTableIII() }

// TableV regenerates the Table V TCP_RR analysis.
func TableV() bench.TableVResult { return bench.RunTableV() }

// Figure4 regenerates Figure 4. distributed selects the virq-distribution
// configuration for the request-serving workloads (false matches the
// paper's default setup).
func Figure4(distributed bool) bench.Figure4Result { return bench.RunFigure4(distributed) }

// VirqDistribution regenerates the §V in-text experiment.
func VirqDistribution() bench.VirqDistributionResult { return bench.RunVirqDistribution() }

// VHE regenerates the §VI ARMv8.1 projection.
func VHE() bench.VHEResult { return bench.RunVHE() }

// DiskBenchmark runs the block I/O extension experiment: the paper's
// storage configuration (virtio-blk cache=none vs Xen blkback with
// persistent grants) under the same I/O-model analysis the paper applies
// to networking.
func DiskBenchmark() bench.DiskResult { return bench.RunDisk() }

// Sensitivity perturbs the calibrated residual constants ±spread across
// samples (seeded, deterministic) and reports how often each of the
// paper's qualitative conclusions survives.
func Sensitivity(samples int, spread float64, seed int64) bench.SensitivityResult {
	return bench.RunSensitivity(samples, spread, seed)
}

// TickOverhead runs the timer-tick simulation: a CPU-bound guest with a
// hz-rate timer, each expiry taking the real physical-interrupt-to-virq
// path. Returns the runtime inflation factor (1.0 = no overhead).
func (s *System) TickOverhead(computeMs float64, hz int) float64 {
	return workload.TickSim(s.kind.factory()(), computeMs, hz).Overhead
}

// Oversubscribe time-shares one core among n CPU-bound VMs at the given
// quantum and returns the fraction of the core left after VM-switch costs.
func (s *System) Oversubscribe(n int, quantumUs float64, quanta int) float64 {
	return workload.Oversubscribe(s.kind.factory()(), n, quantumUs, quanta).Efficiency
}

// WeightedShares time-shares one core among VMs under the Xen-style credit
// scheduler with the given weights, returning each VM's achieved share.
func (s *System) WeightedShares(weights []int, quantumUs float64, quanta int) map[string]float64 {
	return workload.WeightedShares(s.kind.factory()(), weights, quantumUs, quanta)
}

// FaultWarmup runs the Stage-2 fault-storm experiment over n pages and
// returns (cold per-fault, warm per-touch) cycle costs.
func (s *System) FaultWarmup(n int) (cold, warm int64) {
	r := workload.FaultStorm(s.kind.factory()(), n)
	return int64(r.ColdPerFault), int64(r.WarmPerTouch)
}
