package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"armvirt/internal/hyp"
	"armvirt/internal/hyp/kvm"
	"armvirt/internal/hyp/xen"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// SensitivityResult reports how robust the paper's qualitative conclusions
// are to perturbation of the *calibrated residual* constants — the values
// Table II forces but does not decompose (vhost wakes, Dom0 worker wakes,
// Xen's vgic emulation, notification ring work). If a conclusion only
// holds at the exact calibration point, it is an artifact of calibration;
// if it holds across ±spread perturbations, it follows from the mechanism
// structure.
type SensitivityResult struct {
	Samples int
	Spread  float64
	// Held[conclusion] counts samples where the conclusion survived.
	Held map[string]int
}

// perturb scales v by a uniform factor in [1-spread, 1+spread].
func perturb(rng *rand.Rand, v int64, spread float64) int64 {
	f := 1 + (rng.Float64()*2-1)*spread
	return int64(float64(v) * f)
}

// perturbedKVMARMCosts returns KVM ARM's costs with its residual
// constants scattered.
func perturbedKVMARMCosts(rng *rand.Rand, spread float64) kvm.Costs {
	c := platform.KVMARMCosts()
	c.VCPUWake = perturbCycles(rng, c.VCPUWake, spread)
	c.NotifyResidual = perturbCycles(rng, c.NotifyResidual, spread)
	c.BackendWake = perturbCycles(rng, c.BackendWake, spread)
	c.Irqfd = perturbCycles(rng, c.Irqfd, spread)
	c.HostSchedSwitch = perturbCycles(rng, c.HostSchedSwitch, spread)
	return c
}

// perturbedXenARMCosts returns Xen ARM's costs with its residual
// constants scattered.
func perturbedXenARMCosts(rng *rand.Rand, spread float64) xen.Costs {
	c := platform.XenARMCosts()
	c.SGIEmulate = perturbCycles(rng, c.SGIEmulate, spread)
	c.PhysIRQAck = perturbCycles(rng, c.PhysIRQAck, spread)
	c.VirqInject = perturbCycles(rng, c.VirqInject, spread)
	c.UpcallDispatch = perturbCycles(rng, c.UpcallDispatch, spread)
	c.Dom0WorkerWake = perturbCycles(rng, c.Dom0WorkerWake, spread)
	c.NotifyRingWork = perturbCycles(rng, c.NotifyRingWork, spread)
	c.IdleWakeSched = perturbCycles(rng, c.IdleWakeSched, spread)
	return c
}

func perturbCycles[T ~int64](rng *rand.Rand, v T, spread float64) T {
	return T(perturb(rng, int64(v), spread))
}

// Conclusions lists the §IV/§V findings the sensitivity analysis checks.
var Conclusions = []string{
	"Xen ARM hypercall 10x under KVM ARM",
	"Xen ARM I/O Latency Out above KVM ARM",
	"Xen ARM I/O Latency In above KVM ARM",
	"KVM ARM beats Xen ARM on Apache",
	"Xen ARM beats KVM ARM on Hackbench",
	"virq distribution helps KVM Apache",
}

// RunSensitivity perturbs the calibrated residuals ±spread and counts how
// often each conclusion survives across samples (seeded: deterministic).
// Each sample draws its perturbed costs once, from a seed per hypervisor,
// and every machine the sample measures is built from them.
func RunSensitivity(samples int, spread float64, seed int64) SensitivityResult {
	rng := rand.New(rand.NewSource(seed))
	res := SensitivityResult{Samples: samples, Spread: spread, Held: map[string]int{}}
	for s := 0; s < samples; s++ {
		kvmSeed, xenSeed := rng.Int63(), rng.Int63()
		kc := perturbedKVMARMCosts(rand.New(rand.NewSource(kvmSeed)), spread)
		xc := perturbedXenARMCosts(rand.New(rand.NewSource(xenSeed)), spread)
		newKVM := func() hyp.Hypervisor { return kvm.New(platform.ARMMachine(), kc, false) }
		newXen := func() hyp.Hypervisor { return xen.New(platform.ARMMachine(), xc) }
		kvmPC := micro.MeasurePathCosts(newKVM)
		xenPC := micro.MeasurePathCosts(newXen)

		if float64(kvmPC.Hypercall) > 10*float64(xenPC.Hypercall) {
			res.Held["Xen ARM hypercall 10x under KVM ARM"]++
		}
		if xenPC.IOOut > kvmPC.IOOut {
			res.Held["Xen ARM I/O Latency Out above KVM ARM"]++
		}
		if xenPC.IOIn > kvmPC.IOIn {
			res.Held["Xen ARM I/O Latency In above KVM ARM"]++
		}
		a := workload.Apache()
		if a.Overhead(xenPC, false) > a.Overhead(kvmPC, false) {
			res.Held["KVM ARM beats Xen ARM on Apache"]++
		}
		hb := workload.Hackbench()
		if hb.Overhead(xenPC) < hb.Overhead(kvmPC) {
			res.Held["Xen ARM beats KVM ARM on Hackbench"]++
		}
		if a.Overhead(kvmPC, true) < a.Overhead(kvmPC, false) {
			res.Held["virq distribution helps KVM Apache"]++
		}
	}
	return res
}

// Rows enumerates, per conclusion, the fraction of samples in which it
// held.
func (r SensitivityResult) Rows() []Row {
	var rows []Row
	for _, c := range Conclusions {
		frac := 0.0
		if r.Samples > 0 {
			frac = float64(r.Held[c]) / float64(r.Samples)
		}
		rows = append(rows, row("held_fraction", frac, "", "conclusion", c))
	}
	return rows
}

// Render formats the robustness report.
func (r SensitivityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity: %d samples, calibrated residuals perturbed ±%.0f%%\n",
		r.Samples, r.Spread*100)
	for _, c := range Conclusions {
		fmt.Fprintf(&b, "%-45s held in %3d/%d samples\n", c, r.Held[c], r.Samples)
	}
	return b.String()
}
