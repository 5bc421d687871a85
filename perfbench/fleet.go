package main

import (
	"fmt"
	"runtime"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/sim"
	"armvirt/internal/workload"
)

// fleetOp runs PD1 exactly as registered at engine parallelism par,
// checks its rows against the pin, and returns the result and its wall
// time.
func fleetOp(r *run, par int, parent int) (bench.FleetResult, float64) {
	var res bench.FleetResult
	settle()
	ns := r.tr.do(fmt.Sprintf("bench.RunFleet par=%d", par), parent, func(int) {
		detach := sim.BindParallelism(par)
		defer detach()
		res = bench.RunFleet()
	})
	doc, err := fleetJSON(res)
	r.count(err == nil && digest(doc) == r.pins.FleetRows)
	return res, float64(ns) / 1e6
}

// runFleet is the fleet workload: PD1 in a closed loop, alternating
// engine parallelism 1 and nproc.
func runFleet(r *run, dur time.Duration) error {
	root := r.tr.start("fleet", 0)
	defer r.tr.end(root)
	var setups []float64
	var want bench.FleetResult
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		want, _ = fleetOp(r, 1, root)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e("setup_s", median(setups), "s")

	var serial, parallel, allocs, serialEngine, noRecorder []float64
	var parTime float64
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		b0, _ := allocBytes()
		_, ms := fleetOp(r, 1, root)
		b1, _ := allocBytes()
		serial, allocs = append(serial, ms), append(allocs, float64(b1-b0)/(1<<20))
		_, ms = fleetOp(r, r.nproc, root)
		parallel, parTime = append(parallel, ms), parTime+ms
		if r.traced() {
			serialEngine = append(serialEngine, serialEngineFleet(r, root, want))
			noRecorder = append(noRecorder, bareFleet(r, root, want))
		}
	}
	p99, pct := tail(parallel)
	r.e2e("serial_ms", median(serial), "ms")
	r.e2e("parallel_ms", median(parallel), "ms")
	r.e2e("p50_ms", median(parallel), "ms")
	r.e2e("max_rps", float64(len(parallel))/(parTime/1e3), "1/s")
	r.e2e("alloc_mb", median(allocs), "MB")
	if r.primary {
		r.notes["fleet"] = map[string]any{"ops_per_par": len(serial), "p99_ms": p99, "p99_pct": pct,
			"closed_loop": "one PD1 at a time; p50, p99 and max_rps are over the par=nproc runs"}
	}
	if !r.traced() {
		return nil
	}
	// Engine health counters are functions of event timestamps alone, so
	// one collected run of each parallelism gives them exactly.
	var st1, stN sim.EngineStats
	for _, c := range []struct {
		par int
		st  *sim.EngineStats
	}{{1, &st1}, {r.nproc, &stN}} {
		col := sim.CollectStats(func() { fleetOp(r, c.par, root) })
		*c.st = col.Snapshot()
	}
	r.layer("sim.windows", float64(stN.Windows), "count")
	r.layer("sim.barrier_stall_cycles", float64(stN.BarrierStallCycles), "count")
	r.layer("sim.outbox_msgs", float64(stN.OutboxMsgs), "count")
	r.layer("sim.ns_per_event.par1", median(serial)*1e6/float64(max(st1.Events, 1)), "ns")
	r.layer("sim.ns_per_event.parN", median(parallel)*1e6/float64(max(stN.Events, 1)), "ns")
	se := median(serialEngine)
	r.layer("sim.serial_engine_ms", se, "ms")
	// The speedup is only against the fastest serial baseline, and only
	// meaningful when the host has a core per worker.
	r.layer("sim.speedup", se/median(parallel), "x")
	if g := runtime.GOMAXPROCS(0); g < r.nproc {
		r.notes["sim.speedup_flag"] = fmt.Sprintf("not a parallel speedup: %d workers on GOMAXPROCS %d", r.nproc, g)
	}
	r.layer("obs.recorder_ratio", median(serial)/median(noRecorder), "ratio")
	return nil
}

// serialEngineFleet runs PD1's scenario on the single-partition engine,
// with the same recorder PD1 attaches, and returns its wall time. Its
// fleet checksum must equal PD1's: partitioning may not change results.
func serialEngineFleet(r *run, parent int, want bench.FleetResult) float64 {
	var fl workload.FleetResult
	settle()
	ns := r.tr.do("workload.Fleet serial-engine", parent, func(int) {
		m := platform.ARMMachine()
		m.SetRecorder(obs.NewRecorder(m.NCPU(), 1<<12))
		fl = workload.Fleet(m, workload.FleetParams{})
	})
	r.count(fl.Checksum == want.Fleet.Checksum)
	return float64(ns) / 1e6
}

// bareFleet runs PD1's scenario on the partitioned engine at parallelism
// 1 without the recorder, pricing the observability hook.
func bareFleet(r *run, parent int, want bench.FleetResult) float64 {
	var fl workload.FleetResult
	settle()
	ns := r.tr.do("workload.Fleet no-recorder", parent, func(int) {
		detach := sim.BindParallelism(1)
		defer detach()
		fl = workload.Fleet(platform.ARMMachinePartitioned(), workload.FleetParams{})
	})
	r.count(fl.Checksum == want.Fleet.Checksum)
	return float64(ns) / 1e6
}
