package micro

import (
	"testing"

	"armvirt/internal/hyp"
	"armvirt/internal/platform"
)

var profilePlatforms = map[string]func() hyp.Hypervisor{
	"KVM ARM": func() hyp.Hypervisor { return platform.NewKVMARM().Hyp() },
	"Xen ARM": func() hyp.Hypervisor { return platform.NewXenARM().Hyp() },
	"KVM x86": func() hyp.Hypervisor { return platform.NewKVMX86().Hyp() },
	"Xen x86": func() hyp.Hypervisor { return platform.NewXenX86().Hyp() },
}

// The acceptance bar for the profiler: the phase sums of every profiled
// operation equal the measured operation total exactly — nothing spent in
// the measured window escapes attribution.
func TestProfileTotalEqualsMeasuredCycles(t *testing.T) {
	for name, newHyp := range profilePlatforms {
		for _, op := range TracedOps {
			pr := ProfileOp(newHyp(), op)
			if got, want := pr.Profile.Total(), int64(pr.Cycles); got != want {
				t.Errorf("%s/%s: profile total %d != measured %d cycles\n%s",
					name, op, got, want, pr.Profile.Folded())
			}
			if pr.Cycles <= 0 {
				t.Errorf("%s/%s: measured %d cycles", name, op, pr.Cycles)
			}
		}
	}
}

// The profiled hypercall must agree exactly with the Hypercall
// microbenchmark's steady-state mean on all four paper platforms: the
// profiler is an attribution layer, not a different measurement.
func TestProfiledHypercallMatchesMicrobenchmark(t *testing.T) {
	for name, newHyp := range profilePlatforms {
		pr := ProfileOp(newHyp(), "hypercall")
		bench := Hypercall(newHyp())
		if bench.CV != 0 {
			t.Errorf("%s: hypercall CV = %v, want deterministic steady state", name, bench.CV)
		}
		if pr.Cycles != bench.Cycles {
			t.Errorf("%s: profiled hypercall = %d cycles, microbenchmark = %d",
				name, pr.Cycles, bench.Cycles)
		}
		if pr.Profile.Total() != int64(bench.Cycles) {
			t.Errorf("%s: profile phase sum %d != microbenchmark total %d",
				name, pr.Profile.Total(), bench.Cycles)
		}
	}
}

// The flat view — the Table III breakdown — of every profiled op must sum
// to the measured total.
func TestProfileMatchesTracedTotals(t *testing.T) {
	for name, newHyp := range profilePlatforms {
		for _, op := range TracedOps {
			pr := ProfileOp(newHyp(), op)
			if got := leavesTotal(pr); got != int64(pr.Cycles) {
				t.Errorf("%s/%s: flat view sums to %d cycles, measured %d", name, op, got, pr.Cycles)
			}
		}
	}
}

// Profiling must not change costs: each profiled op's total equals the
// unprofiled benchmark's measurement.
func TestProfileOpTotalsMatchUntracedRuns(t *testing.T) {
	cases := []struct {
		op   string
		want func() Result
	}{
		{"hypercall", func() Result { return Hypercall(platform.NewKVMARM().Hyp()) }},
		{"gictrap", func() Result { return InterruptControllerTrap(platform.NewKVMARM().Hyp()) }},
		{"virqcomplete", func() Result { return VirtualIRQCompletion(platform.NewKVMARM().Hyp()) }},
		{"vmswitch", func() Result { return VMSwitch(platform.NewKVMARM().Hyp()) }},
	}
	for _, c := range cases {
		pr := ProfileOp(platform.NewKVMARM().Hyp(), c.op)
		want := c.want()
		if pr.Cycles != want.Cycles {
			t.Errorf("%s: profiled %d vs unprofiled %d cycles", c.op, pr.Cycles, want.Cycles)
		}
		if total := leavesTotal(pr); total != int64(pr.Cycles) {
			t.Errorf("%s: breakdown total %d != measured %d", c.op, total, pr.Cycles)
		}
	}
}

func TestTraceStage2Fault(t *testing.T) {
	r := ProfileOp(platform.NewKVMARM().Hyp(), "stage2fault")
	leaf := leafCycles(r)
	if leaf["host: allocate + map page"] == 0 {
		t.Error("fault profile missing the host mapping work")
	}
	if leaf["VGIC Regs: save"] != 3250 {
		t.Error("a split-mode fault must pay the full world switch")
	}
	xen := ProfileOp(platform.NewXenARM().Hyp(), "stage2fault")
	if xen.Cycles >= r.Cycles/3 {
		t.Errorf("Xen fault %d vs KVM %d: EL2 handling should be far cheaper", xen.Cycles, r.Cycles)
	}
}

func TestTraceUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProfileOp(platform.NewKVMARM().Hyp(), "nonsense")
}

func TestTracedOpsAllRun(t *testing.T) {
	for _, op := range TracedOps {
		r := ProfileOp(platform.NewXenARM().Hyp(), op)
		if r.Cycles <= 0 || len(r.Profile.Leaves()) == 0 {
			t.Errorf("%s: empty profile", op)
		}
	}
}

// Two runs of the same profiled op must produce byte-identical folded
// output — the determinism the CI step diffs on.
func TestProfileOpDeterministic(t *testing.T) {
	for name, newHyp := range profilePlatforms {
		a := ProfileOp(newHyp(), "hypercall").Profile.Folded()
		b := ProfileOp(newHyp(), "hypercall").Profile.Folded()
		if a != b {
			t.Errorf("%s: folded output differs across runs:\n%s\n---\n%s", name, a, b)
		}
		if a == "" {
			t.Errorf("%s: empty folded output", name)
		}
	}
}

// leafCycles indexes a profiled op's flat view by charge name.
func leafCycles(pr OpProfile) map[string]int64 {
	out := map[string]int64{}
	for _, l := range pr.Profile.Leaves() {
		out[l.Name] += l.Cycles
	}
	return out
}

// leavesTotal sums a profiled op's flat view.
func leavesTotal(pr OpProfile) int64 {
	var t int64
	for _, l := range pr.Profile.Leaves() {
		t += l.Cycles
	}
	return t
}
