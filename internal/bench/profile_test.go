package bench

import (
	"bytes"
	"testing"

	"armvirt/internal/micro"
)

// Acceptance: the per-phase hypercall breakdown's phase sums must equal
// the Hypercall microbenchmark totals exactly on all four paper platforms.
func TestHypercallPhaseSumsMatchMicrobenchmark(t *testing.T) {
	r := RunPhaseBreakdowns(Platforms, []string{"hypercall"}, 1)
	if len(r.Units) != len(Platforms) {
		t.Fatalf("units = %d, want %d", len(r.Units), len(Platforms))
	}
	f := Factories()
	for _, u := range r.Units {
		var phaseSum int64
		for _, e := range u.Entries {
			phaseSum += e.Cycles
		}
		if phaseSum != u.Cycles {
			t.Errorf("%s: phase sum %d != unit total %d", u.Platform, phaseSum, u.Cycles)
		}
		bench := micro.Hypercall(f[u.Platform]())
		if u.Cycles != int64(bench.Cycles) {
			t.Errorf("%s: profiled total %d != microbenchmark %d cycles",
				u.Platform, u.Cycles, bench.Cycles)
		}
	}
}

// Every traced op's phase sum equals its measured total on every platform.
func TestAllOpsPhaseSumsExact(t *testing.T) {
	r := RunPhaseBreakdowns(nil, nil, 2)
	if len(r.Units) != len(Platforms)*len(micro.TracedOps) {
		t.Fatalf("units = %d", len(r.Units))
	}
	for _, u := range r.Units {
		var phaseSum int64
		for _, e := range u.Entries {
			phaseSum += e.Cycles
		}
		if phaseSum != u.Cycles {
			t.Errorf("%s/%s: phase sum %d != total %d", u.Platform, u.Op, phaseSum, u.Cycles)
		}
	}
}

// Folded and pprof outputs must be byte-identical across repeated runs and
// across parallelism levels.
func TestPhaseBreakdownOutputDeterministic(t *testing.T) {
	serial := RunPhaseBreakdowns(nil, nil, 1)
	again := RunPhaseBreakdowns(nil, nil, 1)
	parallel := RunPhaseBreakdowns(nil, nil, 4)

	if serial.Folded() != again.Folded() {
		t.Error("folded output differs across repeated serial runs")
	}
	if serial.Folded() != parallel.Folded() {
		t.Error("folded output differs between j=1 and j=4")
	}
	if serial.Render() != parallel.Render() {
		t.Error("rendered table differs between j=1 and j=4")
	}

	var a, b bytes.Buffer
	if err := serial.WritePprof(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("pprof output differs between j=1 and j=4")
	}
	if a.Len() == 0 {
		t.Error("empty pprof output")
	}
}

func TestPhaseBreakdownRows(t *testing.T) {
	r := RunPhaseBreakdowns([]string{"KVM ARM"}, []string{"hypercall"}, 1)
	rows := r.Rows()
	if len(rows) < 2 {
		t.Fatalf("rows = %d, want phases + total", len(rows))
	}
	var phaseSum, total float64
	for _, row := range rows {
		switch row.Metric {
		case "phase_cycles":
			phaseSum += row.Value
		case "total_cycles":
			total = row.Value
		}
	}
	if phaseSum != total {
		t.Errorf("row phase sum %v != total row %v", phaseSum, total)
	}
}

// TestPhaseBreakdownUnitPanicReachesCaller: a unit that panics on a worker
// re-panics on the calling goroutine with the same message, so a recover
// in the caller (armvirt-prof, serve's admission) turns it into an error
// instead of the process dying.
func TestPhaseBreakdownUnitPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		ops     []string
		workers int
	}{{[]string{"bogus"}, 1}, {[]string{"hypercall", "bogus", "vmswitch"}, 4}} {
		got := func() (v any) {
			defer func() { v = recover() }()
			RunPhaseBreakdowns([]string{"KVM ARM"}, tc.ops, tc.workers)
			return nil
		}()
		if got != "micro: unknown profiled op bogus" {
			t.Errorf("ops %v j=%d: recovered %v, want the unit's panic", tc.ops, tc.workers, got)
		}
	}
}
