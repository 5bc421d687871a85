package micro

import (
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/platform"
)

// Table II of the paper, in cycles.
var tableII = map[string]map[string]cpu.Cycles{
	"KVM ARM": {
		"Hypercall":                 6500,
		"Interrupt Controller Trap": 7370,
		"Virtual IPI":               11557,
		"Virtual IRQ Completion":    71,
		"VM Switch":                 10387,
		"I/O Latency Out":           6024,
		"I/O Latency In":            13872,
	},
	"Xen ARM": {
		"Hypercall":                 376,
		"Interrupt Controller Trap": 1356,
		"Virtual IPI":               5978,
		"Virtual IRQ Completion":    71,
		"VM Switch":                 8799,
		"I/O Latency Out":           16491,
		"I/O Latency In":            15650,
	},
	"KVM x86": {
		"Hypercall":                 1300,
		"Interrupt Controller Trap": 2384,
		"Virtual IPI":               5230,
		"Virtual IRQ Completion":    1556,
		"VM Switch":                 4812,
		"I/O Latency Out":           560,
		"I/O Latency In":            18923,
	},
	"Xen x86": {
		"Hypercall":                 1228,
		"Interrupt Controller Trap": 1734,
		"Virtual IPI":               5562,
		"Virtual IRQ Completion":    1464,
		"VM Switch":                 10534,
		"I/O Latency Out":           11262,
		"I/O Latency In":            10050,
	},
}

// PaperTableII exposes the reference values to other packages' tests and
// the bench harness.
func PaperTableII() map[string]map[string]cpu.Cycles { return tableII }

func platformFactory(label string) func() hyp.Hypervisor {
	switch label {
	case "KVM ARM":
		return func() hyp.Hypervisor { return platform.NewKVMARM().Hyp() }
	case "Xen ARM":
		return func() hyp.Hypervisor { return platform.NewXenARM().Hyp() }
	case "KVM x86":
		return func() hyp.Hypervisor { return platform.NewKVMX86().Hyp() }
	case "Xen x86":
		return func() hyp.Hypervisor { return platform.NewXenX86().Hyp() }
	}
	panic("unknown platform " + label)
}

// TestTableIICalibration checks every cell of Table II within 2%: the
// composed mechanism paths must reproduce the paper's measurements.
func TestTableIICalibration(t *testing.T) {
	for label, want := range tableII {
		label := label
		t.Run(label, func(t *testing.T) {
			results := RunAll(platformFactory(label))
			for _, r := range results {
				w := want[r.Name]
				diff := float64(r.Cycles-w) / float64(w)
				if diff < 0 {
					diff = -diff
				}
				if diff > 0.02 {
					t.Errorf("%s: got %d cycles, paper reports %d (%.1f%% off)",
						r.Name, r.Cycles, w, diff*100)
				}
			}
		})
	}
}

// TestTableIIShape checks the orderings the paper's analysis rests on,
// which must hold regardless of exact calibration.
func TestTableIIShape(t *testing.T) {
	get := func(label string) map[string]cpu.Cycles {
		out := map[string]cpu.Cycles{}
		for _, r := range RunAll(platformFactory(label)) {
			out[r.Name] = r.Cycles
		}
		return out
	}
	kvmARM, xenARM := get("KVM ARM"), get("Xen ARM")
	kvmX86, xenX86 := get("KVM x86"), get("Xen x86")

	// §IV: Xen ARM's hypercall is less than a third of either x86
	// hypervisor's, and over an order of magnitude below KVM ARM's.
	if !(xenARM["Hypercall"]*3 < kvmX86["Hypercall"] && xenARM["Hypercall"]*3 < xenX86["Hypercall"]) {
		t.Error("Xen ARM hypercall should be <1/3 of x86 hypercalls")
	}
	if kvmARM["Hypercall"] < 10*xenARM["Hypercall"] {
		t.Error("KVM ARM hypercall should be >10x Xen ARM's")
	}
	// ARM completes virtual IRQs in hardware; x86 must trap.
	if kvmARM["Virtual IRQ Completion"] != xenARM["Virtual IRQ Completion"] {
		t.Error("ARM virtual IRQ completion should be identical across hypervisors")
	}
	if kvmX86["Virtual IRQ Completion"] < 15*kvmARM["Virtual IRQ Completion"] {
		t.Error("x86 virtual IRQ completion should be >15x ARM's")
	}
	// VM switch: the two ARM hypervisors are comparable (both context
	// switch the same state).
	ratio := float64(kvmARM["VM Switch"]) / float64(xenARM["VM Switch"])
	if ratio < 1.0 || ratio > 1.4 {
		t.Errorf("ARM VM switch ratio KVM/Xen = %.2f, want ~1.2", ratio)
	}
	// §IV's surprise: Xen ARM is *slower* than KVM ARM on both I/O
	// latency directions despite its fast hypercall.
	if xenARM["I/O Latency Out"] < 2*kvmARM["I/O Latency Out"] {
		t.Error("Xen ARM I/O Latency Out should be >2x KVM ARM's")
	}
	if xenARM["I/O Latency In"] <= kvmARM["I/O Latency In"] {
		t.Error("Xen ARM I/O Latency In should exceed KVM ARM's")
	}
	// KVM x86's I/O Latency Out is the outlier fast path.
	if kvmX86["I/O Latency Out"] >= kvmARM["I/O Latency Out"] {
		t.Error("KVM x86 I/O Latency Out should be the fastest")
	}
}

// TestTableIIIBreakdown verifies the profiled hypercall's flat view
// reproduces Table III's save/restore costs per register class.
func TestTableIIIBreakdown(t *testing.T) {
	r := ProfileOp(platform.NewKVMARM().Hyp(), "hypercall")
	leaf := leafCycles(r)
	want := map[string][2]int64{
		"GP Regs":                 {152, 184},
		"FP Regs":                 {282, 310},
		"EL1 System Regs":         {230, 511},
		"VGIC Regs":               {3250, 181},
		"Timer Regs":              {104, 106},
		"EL2 Config Regs":         {92, 107},
		"EL2 Virtual Memory Regs": {92, 107},
	}
	for cls, sr := range want {
		if got := leaf[cls+": save"]; got != sr[0] {
			t.Errorf("%s save = %d, want %d", cls, got, sr[0])
		}
		if got := leaf[cls+": restore"]; got != sr[1] {
			t.Errorf("%s restore = %d, want %d", cls, got, sr[1])
		}
	}
	if total := leavesTotal(r); total != int64(r.Cycles) {
		t.Errorf("breakdown total %d != measured %d", total, r.Cycles)
	}
	// §IV: saving and restoring state accounts for almost all of the
	// hypercall time.
	var stateTotal int64
	for _, sr := range want {
		stateTotal += sr[0] + sr[1]
	}
	if float64(stateTotal)/float64(r.Cycles) < 0.80 {
		t.Errorf("state save/restore is %.0f%% of hypercall; paper says 'almost all'",
			100*float64(stateTotal)/float64(r.Cycles))
	}
}

// TestVHEProjection verifies the §VI projection: with VHE, the hypercall
// improves by more than an order of magnitude and lands near Xen ARM's
// Type 1 cost.
func TestVHEProjection(t *testing.T) {
	base := Hypercall(platform.NewKVMARM().Hyp())
	vhe := Hypercall(platform.NewKVMARMVHE().Hyp())
	if base.Cycles < 10*vhe.Cycles {
		t.Errorf("VHE hypercall = %d vs split-mode %d; want >10x improvement",
			vhe.Cycles, base.Cycles)
	}
	xen := Hypercall(platform.NewXenARM().Hyp())
	ratio := float64(vhe.Cycles) / float64(xen.Cycles)
	if ratio > 2.0 {
		t.Errorf("VHE hypercall %d should approach Xen's %d (ratio %.2f)",
			vhe.Cycles, xen.Cycles, ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a := RunAll(platformFactory("KVM ARM"))
	b := RunAll(platformFactory("KVM ARM"))
	for i := range a {
		if a[i].Cycles != b[i].Cycles {
			t.Fatalf("%s nondeterministic: %d vs %d", a[i].Name, a[i].Cycles, b[i].Cycles)
		}
	}
}

// TestZeroVariance verifies the simulator achieves what §IV's methodology
// strives for on hardware: every steady-state iteration costs exactly the
// same, so the coefficient of variation is zero.
func TestZeroVariance(t *testing.T) {
	for _, label := range []string{"KVM ARM", "Xen ARM", "KVM x86", "Xen x86"} {
		for _, r := range RunAll(platformFactory(label)) {
			if r.CV != 0 {
				t.Errorf("%s / %s: CV = %v, want 0 (deterministic steady state)", label, r.Name, r.CV)
			}
			if r.Min != r.Max {
				t.Errorf("%s / %s: min %d != max %d", label, r.Name, r.Min, r.Max)
			}
		}
	}
}
