package workload

import (
	"reflect"
	"sync"
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/hw"
	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

// fleetTestParams is small enough to run in milliseconds but still pushes
// thousands of events through every partition per run.
var fleetTestParams = FleetParams{Fibers: 8, Tokens: 6, Hops: 15, Epochs: 6, HopCycles: 40}

// fleetRun runs the fleet on a partitioned ARM machine and returns
// everything an observer could compare: the result, the merged event
// stream, the folded profile and engine stats.
func fleetRun(t *testing.T) (FleetResult, []obs.Event, string, sim.EngineStats) {
	t.Helper()
	m := platform.ARMMachinePartitioned()
	rec := obs.NewRecorder(m.NCPU(), 1<<12)
	m.SetRecorder(rec)
	r := Fleet(m, fleetTestParams)
	return r, rec.Events(), rec.Profile().Folded(), m.Eng.Stats()
}

// TestFleetDeterministicAcrossWorkers is PD1's determinism contract in
// miniature: the fleet result, the merged observability stream, the
// folded profile and the engine counters are identical on a repeat run
// and on runs made concurrently from worker goroutines, the way
// core.RunAll -j and concurrent serve requests run fleets.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	base, baseEvs, baseProf, baseStats := fleetRun(t)
	if base.Hops == 0 || base.IPIs == 0 || len(baseEvs) == 0 || baseProf == "" {
		t.Fatalf("degenerate baseline run: %+v, %d events, profile %q", base, len(baseEvs), baseProf)
	}
	if base.Parts != base.CPUs+1 {
		t.Fatalf("expected %d partitions, got %d", base.CPUs+1, base.Parts)
	}
	type out struct {
		r     FleetResult
		evs   []obs.Event
		prof  string
		stats sim.EngineStats
	}
	// Run 0 repeats on this goroutine while runs 1 and 2 go concurrently.
	runs := make([]out, 3)
	var wg sync.WaitGroup
	for i := 1; i < len(runs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &runs[i]
			o.r, o.evs, o.prof, o.stats = fleetRun(t)
		}()
	}
	o := &runs[0]
	o.r, o.evs, o.prof, o.stats = fleetRun(t)
	wg.Wait()
	for w, o := range runs {
		r, evs, prof, stats := o.r, o.evs, o.prof, o.stats
		if !reflect.DeepEqual(r, base) {
			t.Fatalf("run %d: result differs\n got %+v\nwant %+v", w, r, base)
		}
		if !reflect.DeepEqual(evs, baseEvs) {
			for i := range baseEvs {
				if i < len(evs) && evs[i] != baseEvs[i] {
					t.Fatalf("run %d: event %d differs\n got %+v\nwant %+v", w, i, evs[i], baseEvs[i])
				}
			}
			t.Fatalf("run %d: event stream differs (len %d vs %d)", w, len(evs), len(baseEvs))
		}
		if prof != baseProf {
			t.Fatalf("run %d: folded profile differs\n got %q\nwant %q", w, prof, baseProf)
		}
		if !reflect.DeepEqual(stats, baseStats) {
			t.Fatalf("run %d: engine stats differ\n got %+v\nwant %+v", w, stats, baseStats)
		}
	}
}

// TestFleetPartitionedMatchesSequential: the same scenario on an
// unpartitioned machine produces the same simulated outcome — partitioning
// changes only how the host executes the run.
func TestFleetPartitionedMatchesSequential(t *testing.T) {
	seq := hw.New(hw.Config{Arch: cpu.ARM, NCPU: platform.NCPU, Cost: platform.ARMCostModel()})
	want := Fleet(seq, fleetTestParams)

	par, _, _, _ := fleetRun(t)
	if par.Checksum != want.Checksum || par.Elapsed != want.Elapsed ||
		par.Hops != want.Hops || par.IPIs != want.IPIs {
		t.Fatalf("partitioned run diverged from sequential machine:\n got %v\nwant %v", par, want)
	}
	if !reflect.DeepEqual(par.PerCPU, want.PerCPU) {
		t.Fatalf("per-CPU counters diverged:\n got %+v\nwant %+v", par.PerCPU, want.PerCPU)
	}
	if want.Parts != 1 || par.Parts != platform.NCPU+1 {
		t.Fatalf("partition counts wrong: seq %d, par %d", want.Parts, par.Parts)
	}
}

// TestFleetCounts pins the closed-form event counts so parameter changes
// are deliberate.
func TestFleetCounts(t *testing.T) {
	r, _, _, _ := fleetRun(t)
	p := fleetTestParams
	if want := platform.NCPU * p.Epochs * p.Tokens * p.Hops; r.Hops != want {
		t.Fatalf("hops = %d, want %d", r.Hops, want)
	}
	if want := platform.NCPU * p.Epochs; r.IPIs != want {
		t.Fatalf("IPIs = %d, want %d", r.IPIs, want)
	}
}
