// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design decisions DESIGN.md calls out.
// Reported metrics are the paper's units (cycles, trans/s, normalized
// overhead), attached with b.ReportMetric; run with
//
//	go test -bench=. -benchmem
//
// and compare against EXPERIMENTS.md.
package armvirt

import (
	"testing"

	"armvirt/internal/bench"
	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/hyp/kvm"
	"armvirt/internal/hyp/xen"
	"armvirt/internal/micro"
	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// ---- Table II: one benchmark per microbenchmark, sub-run per platform ----

func benchMicro(b *testing.B, run func(h hyp.Hypervisor) micro.Result) {
	for _, kind := range []Kind{KVMARM, XenARM, KVMX86, XenX86} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var cycles cpu.Cycles
			for i := 0; i < b.N; i++ {
				cycles = run(kind.factory()()).Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

func BenchmarkTable2_Hypercall(b *testing.B) { benchMicro(b, micro.Hypercall) }
func BenchmarkTable2_InterruptControllerTrap(b *testing.B) {
	benchMicro(b, micro.InterruptControllerTrap)
}
func BenchmarkTable2_VirtualIPI(b *testing.B) { benchMicro(b, micro.VirtualIPI) }
func BenchmarkTable2_VirtualIRQCompletion(b *testing.B) {
	benchMicro(b, micro.VirtualIRQCompletion)
}
func BenchmarkTable2_VMSwitch(b *testing.B)     { benchMicro(b, micro.VMSwitch) }
func BenchmarkTable2_IOLatencyOut(b *testing.B) { benchMicro(b, micro.IOLatencyOut) }
func BenchmarkTable2_IOLatencyIn(b *testing.B)  { benchMicro(b, micro.IOLatencyIn) }

// ---- Table III ----

func BenchmarkTable3_HypercallBreakdown(b *testing.B) {
	var save int64
	for i := 0; i < b.N; i++ {
		for _, l := range micro.ProfileOp(KVMARM.factory()(), "hypercall").Profile.Leaves() {
			if l.Name == "VGIC Regs: save" {
				save = l.Cycles
			}
		}
	}
	b.ReportMetric(float64(save), "vgic-save-cycles")
}

// ---- Table V ----

func BenchmarkTable5_TCPRRAnalysis(b *testing.B) {
	prm := workload.DefaultParams()
	cases := map[string]func() workload.TCPRRResult{
		"Native":  func() workload.TCPRRResult { return workload.TCPRRNative(platform.ARMMachine(), prm) },
		"KVM_ARM": func() workload.TCPRRResult { return workload.TCPRRVirt(KVMARM.factory()(), prm) },
		"Xen_ARM": func() workload.TCPRRResult { return workload.TCPRRVirt(XenARM.factory()(), prm) },
	}
	for name, run := range cases {
		run := run
		b.Run(name, func(b *testing.B) {
			var r workload.TCPRRResult
			for i := 0; i < b.N; i++ {
				r = run()
			}
			b.ReportMetric(r.TransPerSec, "trans/s")
			b.ReportMetric(r.TimePerTransUs, "us/trans")
		})
	}
}

// ---- Figure 4: one benchmark per workload, sub-run per platform ----

func benchFigure4(b *testing.B, workloadName string) {
	for _, label := range bench.Platforms {
		label := label
		b.Run(label, func(b *testing.B) {
			var cell bench.Cell
			for i := 0; i < b.N; i++ {
				cell = bench.Figure4Cell(workloadName, label, false)
				if cell.NA {
					b.Skip("paper: configuration crashed (Mellanox driver bug in Dom0)")
				}
			}
			b.ReportMetric(cell.Measured, "overhead")
		})
	}
}

func BenchmarkFigure4_Kernbench(b *testing.B)   { benchFigure4(b, "Kernbench") }
func BenchmarkFigure4_Hackbench(b *testing.B)   { benchFigure4(b, "Hackbench") }
func BenchmarkFigure4_SPECjvm2008(b *testing.B) { benchFigure4(b, "SPECjvm2008") }
func BenchmarkFigure4_TCPRR(b *testing.B)       { benchFigure4(b, "TCP_RR") }
func BenchmarkFigure4_TCPStream(b *testing.B)   { benchFigure4(b, "TCP_STREAM") }
func BenchmarkFigure4_TCPMaerts(b *testing.B)   { benchFigure4(b, "TCP_MAERTS") }
func BenchmarkFigure4_Apache(b *testing.B)      { benchFigure4(b, "Apache") }
func BenchmarkFigure4_Memcached(b *testing.B)   { benchFigure4(b, "Memcached") }
func BenchmarkFigure4_MySQL(b *testing.B)       { benchFigure4(b, "MySQL") }

// ---- in-text experiments ----

func BenchmarkInText_VirqDistribution(b *testing.B) {
	var res bench.VirqDistributionResult
	for i := 0; i < b.N; i++ {
		res = bench.RunVirqDistribution()
	}
	a := res.Cells["Apache"]["KVM ARM"]
	b.ReportMetric(a[0], "concentrated-overhead")
	b.ReportMetric(a[1], "distributed-overhead")
}

func BenchmarkVHE_Projection(b *testing.B) {
	var res bench.VHEResult
	for i := 0; i < b.N; i++ {
		res = bench.RunVHE()
	}
	b.ReportMetric(res.Micro["Hypercall"][0]/res.Micro["Hypercall"][1], "hypercall-speedup")
	b.ReportMetric(res.ApacheOverhead[1], "vhe-apache-overhead")
}

// ---- ablations (DESIGN.md §5) ----

// BenchmarkAblation_WorldSwitch flips only the split-mode vs VHE world
// switch: responsible for the entire Hypercall gap of Table II.
func BenchmarkAblation_WorldSwitch(b *testing.B) {
	for _, kind := range []Kind{KVMARM, KVMARMVHE} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var c cpu.Cycles
			for i := 0; i < b.N; i++ {
				c = micro.Hypercall(kind.factory()()).Cycles
			}
			b.ReportMetric(float64(c), "cycles")
		})
	}
}

// BenchmarkAblation_ZeroCopy flips only Xen's grant copy to a hypothetical
// grant-map zero-copy path: responsible for the TCP_STREAM result.
func BenchmarkAblation_ZeroCopy(b *testing.B) {
	prm := workload.DefaultParams()
	pc := micro.MeasurePathCosts(XenARM.factory())
	nat := workload.TCPStream(pc, prm, false)
	b.Run("grant-copy", func(b *testing.B) {
		var o float64
		for i := 0; i < b.N; i++ {
			o = workload.Normalized(nat, workload.TCPStream(pc, prm, true))
		}
		b.ReportMetric(o, "overhead")
	})
	b.Run("zero-copy", func(b *testing.B) {
		var o float64
		for i := 0; i < b.N; i++ {
			o = workload.Normalized(nat, workload.TCPStreamXenZeroCopy(pc, prm))
		}
		b.ReportMetric(o, "overhead")
	})
}

// BenchmarkAblation_IdleDomain zeroes the idle-domain wake switch:
// responsible for Xen's I/O latency losses.
func BenchmarkAblation_IdleDomain(b *testing.B) {
	build := func(idleWake cpu.Cycles) func() hyp.Hypervisor {
		return func() hyp.Hypervisor {
			c := platform.XenARMCosts()
			c.IdleWakeSched = idleWake
			return xen.New(platform.ARMMachine(), c)
		}
	}
	b.Run("with-idle-domain", func(b *testing.B) {
		var c cpu.Cycles
		for i := 0; i < b.N; i++ {
			c = micro.IOLatencyOut(build(platform.XenARMCosts().IdleWakeSched)()).Cycles
		}
		b.ReportMetric(float64(c), "cycles")
	})
	b.Run("no-idle-switch", func(b *testing.B) {
		var c cpu.Cycles
		for i := 0; i < b.N; i++ {
			c = micro.IOLatencyOut(build(0)()).Cycles
		}
		b.ReportMetric(float64(c), "cycles")
	})
}

// BenchmarkAblation_VirqDistribution is the §V experiment as an ablation.
func BenchmarkAblation_VirqDistribution(b *testing.B) {
	pc := micro.MeasurePathCosts(KVMARM.factory())
	for _, mode := range []struct {
		name string
		dist bool
	}{{"concentrated", false}, {"distributed", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var o float64
			for i := 0; i < b.N; i++ {
				o = workload.Apache().Overhead(pc, mode.dist)
			}
			b.ReportMetric(o, "overhead")
		})
	}
}

// BenchmarkAblation_VAPIC flips x86 hardware APIC virtualization:
// responsible for the Virtual IRQ Completion gap between ARM (71 cycles)
// and the paper's pre-vAPIC Xeon (~1,500 cycles).
func BenchmarkAblation_VAPIC(b *testing.B) {
	build := func(vapic bool) func() hyp.Hypervisor {
		return func() hyp.Hypervisor {
			return kvm.New(platform.X86Machine(vapic), platform.KVMX86Costs(), false)
		}
	}
	for _, mode := range []struct {
		name  string
		vapic bool
	}{{"no-vapic", false}, {"vapic", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var c cpu.Cycles
			for i := 0; i < b.N; i++ {
				c = micro.VirtualIRQCompletion(build(mode.vapic)()).Cycles
			}
			b.ReportMetric(float64(c), "cycles")
		})
	}
}

// ---- observability overhead ----

// BenchmarkObs_Recorder measures what the tracing layer costs a full
// TCP_RR run: "disabled" is the nil-recorder path every hook pays when
// observability is off, "enabled" records the full event stream.
func BenchmarkObs_Recorder(b *testing.B) {
	prm := workload.DefaultParams()
	run := func(b *testing.B, record bool) {
		var total int64
		for i := 0; i < b.N; i++ {
			h := KVMARM.factory()()
			m := h.Machine()
			if record {
				rec := obs.NewRecorder(m.NCPU(), 0)
				m.SetRecorder(rec)
				workload.TCPRRVirt(h, prm)
				total = rec.Total()
			} else {
				workload.TCPRRVirt(h, prm)
			}
		}
		b.ReportMetric(float64(total), "events")
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_VGICRead shrinks the 3,250-cycle VGIC save to the cost
// of the other register classes: responsible for most of KVM ARM's
// hypercall cost and for the save/restore asymmetry §IV highlights.
func BenchmarkAblation_VGICRead(b *testing.B) {
	build := func(vgicSave cpu.Cycles) func() hyp.Hypervisor {
		return func() hyp.Hypervisor {
			cm := platform.ARMCostModel()
			cm.SetClass(cpu.VGIC, vgicSave, cm.ClassCost(cpu.VGIC).Restore)
			m := platform.ARMMachineWithCost(cm)
			return kvm.New(m, platform.KVMARMCosts(), false)
		}
	}
	for _, mode := range []struct {
		name string
		save cpu.Cycles
	}{{"measured-3250", 3250}, {"fast-vgic-200", 200}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var c cpu.Cycles
			for i := 0; i < b.N; i++ {
				c = micro.Hypercall(build(mode.save)()).Cycles
			}
			b.ReportMetric(float64(c), "cycles")
		})
	}
}
