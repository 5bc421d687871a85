package armvirt

import (
	"slices"
	"testing"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KVMARM: "KVM ARM", XenARM: "Xen ARM", KVMX86: "KVM x86",
		XenX86: "Xen x86", KVMARMVHE: "KVM ARM (VHE)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestSystemMicrobenchmarks(t *testing.T) {
	rs := New(KVMARM).RunMicrobenchmarks()
	if len(rs) != 7 {
		t.Fatalf("got %d microbenchmarks, want 7", len(rs))
	}
	if rs[0].Name != "Hypercall" || rs[0].Cycles != 6500 {
		t.Fatalf("hypercall = %+v, want 6500 cycles", rs[0])
	}
	if rs[0].Micros <= 0 || rs[0].Micros > 10 {
		t.Fatalf("hypercall micros = %v", rs[0].Micros)
	}
}

func TestSystemReusable(t *testing.T) {
	s := New(XenARM)
	a := s.RunMicrobenchmarks()
	b := s.RunMicrobenchmarks()
	for i := range a {
		if a[i].Cycles != b[i].Cycles {
			t.Fatalf("system not reusable: %s %d vs %d", a[i].Name, a[i].Cycles, b[i].Cycles)
		}
	}
}

func TestHypercallBreakdownAPI(t *testing.T) {
	steps := New(KVMARM).HypercallBreakdown()
	if len(steps) < 10 {
		t.Fatalf("breakdown too shallow: %d steps", len(steps))
	}
	var total int64
	seenVGIC := false
	for _, s := range steps {
		total += s.Cycles
		if s.Name == "VGIC Regs: save" && s.Cycles == 3250 {
			seenVGIC = true
		}
	}
	if !seenVGIC {
		t.Error("breakdown missing the 3250-cycle VGIC save")
	}
	if total != 6500 {
		t.Errorf("breakdown total = %d, want 6500", total)
	}
}

// TestHypercallBreakdownPinned pins the Table III attribution exactly:
// every step's name, its first-seen order and its cycles.
func TestHypercallBreakdownPinned(t *testing.T) {
	want := []BreakdownStep{
		{"trap to EL2", 27},
		{"GP Regs: save", 152},
		{"FP Regs: save", 282},
		{"EL1 System Regs: save", 230},
		{"VGIC Regs: save", 3250},
		{"Timer Regs: save", 104},
		{"EL2 Config Regs: save", 92},
		{"EL2 Virtual Memory Regs: save", 92},
		{"disable Stage-2 and traps", 43},
		{"restore host context", 270},
		{"eret to host EL1", 27},
		{"hypercall handler", 118},
		{"hvc to EL2", 27},
		{"save host context", 210},
		{"enable Stage-2 and traps", 43},
		{"GP Regs: restore", 184},
		{"FP Regs: restore", 310},
		{"EL1 System Regs: restore", 511},
		{"VGIC Regs: restore", 181},
		{"Timer Regs: restore", 106},
		{"EL2 Config Regs: restore", 107},
		{"EL2 Virtual Memory Regs: restore", 107},
		{"eret to guest", 27},
	}
	got := New(KVMARM).HypercallBreakdown()
	if !slices.Equal(got, want) {
		t.Errorf("breakdown:\n got %v\nwant %v", got, want)
	}
}

func TestTCPRRAPI(t *testing.T) {
	n := TCPRRNativeARM()
	v := New(KVMARM).TCPRR()
	if v.TimePerTransUs <= n.TimePerTransUs {
		t.Fatal("virtualized TCP_RR should be slower than native")
	}
}

func TestPathCostsAPI(t *testing.T) {
	pc := New(KVMARMVHE).PathCosts()
	if pc.Hypercall >= 1000 {
		t.Errorf("VHE hypercall = %d, should be Xen-like", pc.Hypercall)
	}
	if !New(XenARM).PathCosts().Type1 {
		t.Error("Xen should report Type1")
	}
}

func TestExperimentAPIs(t *testing.T) {
	sys := New(KVMARM)
	if o := sys.TickOverhead(50, 250); o <= 1.0 || o > 1.01 {
		t.Errorf("tick overhead = %v, want just above 1.0", o)
	}
	if e := sys.Oversubscribe(2, 100, 20); e <= 0.9 || e >= 1.0 {
		t.Errorf("oversubscription efficiency = %v", e)
	}
	shares := New(XenARM).WeightedShares([]int{512, 256}, 100, 100)
	if shares["vm0"] <= shares["vm1"] {
		t.Errorf("weighted shares = %v", shares)
	}
	cold, warm := sys.FaultWarmup(64)
	if cold < 8000 || warm != 0 {
		t.Errorf("fault warmup = %d/%d", cold, warm)
	}
	sens := Sensitivity(3, 0.1, 1)
	if sens.Samples != 3 {
		t.Error("sensitivity samples wrong")
	}
}

func TestX86FaultStorm(t *testing.T) {
	// EPT violations exit to root mode; the x86 path must work too.
	cold, warm := New(KVMX86).FaultWarmup(64)
	if cold < 1000 || warm != 0 {
		t.Errorf("x86 fault warmup = %d/%d", cold, warm)
	}
	armCold, _ := New(KVMARM).FaultWarmup(64)
	if cold >= armCold {
		t.Errorf("x86 EPT fault (%d) should be cheaper than split-mode ARM's (%d)", cold, armCold)
	}
}

func TestWholeArtifactAPIs(t *testing.T) {
	if len(TableII().Cells) != 4 {
		t.Error("TableII should cover 4 platforms")
	}
	if TableIII().Total != 6500 {
		t.Error("TableIII total should be 6500")
	}
	if TableV().KVM.TransPerSec <= 0 {
		t.Error("TableV KVM column empty")
	}
	fig := Figure4(false)
	if len(fig.Cells) != 9 {
		t.Errorf("Figure4 should cover 9 workloads, got %d", len(fig.Cells))
	}
	if VHE().ApacheOverhead[0] <= VHE().ApacheOverhead[1] {
		t.Error("VHE should reduce Apache overhead")
	}
	if len(VirqDistribution().Cells) != 2 {
		t.Error("VirqDistribution should cover 2 workloads")
	}
}
