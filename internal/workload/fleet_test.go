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
	"armvirt/internal/telemetry"
)

// fleetTestParams is small enough to run in milliseconds but still pushes
// thousands of events through every partition per run.
var fleetTestParams = FleetParams{Fibers: 8, Tokens: 6, Hops: 15, Epochs: 6, HopCycles: 40}

// fleetRun runs the fleet on a partitioned ARM machine and returns
// everything an observer could compare: the result, the event stream, the folded profile and engine stats.
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

// fleetObserved is what the observers attached to a fleet machine saw:
// the recorder's per-kind counts and folded profile, and the sampler's
// series.
type fleetObserved struct {
	r      FleetResult
	counts map[obs.Kind]int64
	folded string
	series []telemetry.Series
}

// observeFleet builds a machine with newMachine under a telemetry
// collector, attaches a recorder and runs the fleet on it.
func observeFleet(newMachine func() *hw.Machine, p FleetParams) fleetObserved {
	var o fleetObserved
	var rec *obs.Recorder
	col := telemetry.Collect(10, func() {
		m := newMachine()
		rec = obs.NewRecorder(m.NCPU(), 1<<12)
		m.SetRecorder(rec)
		o.r = Fleet(m, p)
	})
	o.counts = make(map[obs.Kind]int64, len(obs.Kinds))
	for _, k := range obs.Kinds {
		o.counts[k] = rec.Count(k)
	}
	o.folded = rec.Profile().Folded()
	o.series = col.SortedSeries()
	return o
}

// TestFleetPartitionedMatchesSequential: the same scenario on an
// unpartitioned machine produces the same simulated outcome, and its
// observers see the same thing — partitioning changes only how the host
// executes the run. Checked at the test parameters and at PD1's.
func TestFleetPartitionedMatchesSequential(t *testing.T) {
	unpartitioned := func() *hw.Machine {
		return hw.New(hw.Config{Arch: cpu.ARM, NCPU: platform.NCPU, Cost: platform.ARMCostModel()})
	}
	for _, p := range []FleetParams{fleetTestParams, {}} {
		want := observeFleet(unpartitioned, p)
		got := observeFleet(platform.ARMMachinePartitioned, p)
		par, seq := got.r, want.r
		if par.Checksum != seq.Checksum || par.Elapsed != seq.Elapsed ||
			par.Hops != seq.Hops || par.IPIs != seq.IPIs {
			t.Fatalf("%+v: partitioned run diverged from sequential machine:\n got %v\nwant %v", p, par, seq)
		}
		if !reflect.DeepEqual(par.PerCPU, seq.PerCPU) {
			t.Fatalf("%+v: per-CPU counters diverged:\n got %+v\nwant %+v", p, par.PerCPU, seq.PerCPU)
		}
		if seq.Parts != 1 || par.Parts != platform.NCPU+1 {
			t.Fatalf("%+v: partition counts wrong: seq %d, par %d", p, seq.Parts, par.Parts)
		}
		if got.counts[obs.PhysIRQ] == 0 || got.counts[obs.ProcEvent] == 0 || got.folded == "" || len(got.series) != 1 {
			t.Fatalf("%+v: degenerate observation: counts %v, folded %q, %d series", p, got.counts, got.folded, len(got.series))
		}
		if !reflect.DeepEqual(got.counts, want.counts) {
			t.Errorf("%+v: recorder counts diverged:\n got %v\nwant %v", p, got.counts, want.counts)
		}
		if got.folded != want.folded {
			t.Errorf("%+v: folded profile diverged:\n got %q\nwant %q", p, got.folded, want.folded)
		}
		if !reflect.DeepEqual(got.series, want.series) {
			t.Errorf("%+v: telemetry series diverged", p)
		}
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
