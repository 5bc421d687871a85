package main

import (
	"context"
	"fmt"
	"time"

	"armvirt/internal/core"
	"armvirt/internal/sim"
)

// setupRepeats is how many times a workload sets up; setup_s is the
// median, so one slow set-up does not read as a regression.
const setupRepeats = 5

// studyOp runs the full registry at parallelism j, checks the output
// against the pin, and returns its wall time and allocated bytes.
func studyOp(r *run, j int, parent int) (ms, allocMB float64) {
	settle()
	b0, _ := allocBytes()
	var reports []core.Report
	ns := r.tr.do(fmt.Sprintf("core.RunAll j=%d", j), parent, func(int) {
		reports = core.RunAll(context.Background(), j)
	})
	b1, _ := allocBytes()
	doc, err := studyJSON(reports)
	r.count(err == nil && digest(doc) == r.pins.Study)
	return float64(ns) / 1e6, float64(b1-b0) / (1 << 20)
}

// runStudy is the study workload: core.RunAll over the full registry,
// closed loop, alternating j=1 and j=nproc. Traced runs add a sweep that
// runs each experiment alone for the per-experiment layer metrics.
func runStudy(r *run, dur time.Duration) error {
	root := r.tr.start("study", 0)
	defer r.tr.end(root)
	var setups []float64
	repeats := setupRepeats
	if !r.primary {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		studyOp(r, 1, root)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e("setup_s", median(setups), "s")

	var serial, parallel, allocs []float64
	sw := newSweep()
	var parTime float64
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		ms, a := studyOp(r, 1, root)
		serial, allocs = append(serial, ms), append(allocs, a)
		ms, _ = studyOp(r, r.nproc, root)
		parallel, parTime = append(parallel, ms), parTime+ms
		if r.traced() {
			if err := sw.run(r, root); err != nil {
				return err
			}
		}
	}
	p99, pct := tail(parallel)
	r.e2e("serial_ms", median(serial), "ms")
	r.e2e("parallel_ms", median(parallel), "ms")
	r.e2e("p50_ms", median(parallel), "ms")
	r.e2e("max_rps", float64(len(parallel))/(parTime/1e3), "1/s")
	r.e2e("alloc_mb", median(allocs), "MB")
	if r.primary {
		r.notes["study"] = map[string]any{"ops_per_j": len(serial), "p99_ms": p99, "p99_pct": pct,
			"closed_loop": "one study at a time; p50, p99 and max_rps are over the j=nproc studies"}
	}
	if r.traced() {
		sw.report(r)
	}
	return nil
}

// sweep runs every experiment alone under sim.CollectStats, the way the
// serve tier runs one, and accumulates per-experiment cost.
type sweep struct {
	ms, allocs     map[string][]float64
	render, encode []float64
	stats          sim.EngineStats // of one sweep; deterministic
	wallNS         []float64       // engine wall time of each sweep
}

func newSweep() *sweep {
	return &sweep{ms: make(map[string][]float64), allocs: make(map[string][]float64)}
}

func (sw *sweep) run(r *run, parent int) error {
	id := r.tr.start("sweep", parent)
	defer r.tr.end(id)
	var reports []core.Report
	var stats sim.EngineStats
	var wall float64
	for _, e := range core.Experiments() {
		var rep core.Report
		var col *sim.StatsCollector
		_, m0 := allocBytes()
		ns := r.tr.do("core.RunOne "+e.ID, id, func(int) {
			col = sim.CollectStats(func() { rep = core.RunOne(e) })
		})
		_, m1 := allocBytes()
		if rep.Err != nil {
			return rep.Err
		}
		sw.ms[e.ID] = append(sw.ms[e.ID], float64(ns)/1e6)
		sw.allocs[e.ID] = append(sw.allocs[e.ID], float64(m1-m0))
		stats.Merge(col.Snapshot())
		wall += float64(ns)
		reports = append(reports, rep)
	}
	ns := r.tr.do("bench.Render", id, func(int) {
		for _, rep := range reports {
			_ = rep.Result.Render()
		}
	})
	sw.render = append(sw.render, float64(ns)/1e6)
	var doc []byte
	var err error
	ns = r.tr.do("bench.WriteJSON", id, func(int) { doc, err = studyJSON(reports) })
	sw.encode = append(sw.encode, float64(ns)/1e6)
	r.count(err == nil && digest(doc) == r.pins.Study)
	sw.stats, sw.wallNS = stats, append(sw.wallNS, wall)
	return nil
}

func (sw *sweep) report(r *run) {
	for _, e := range core.Experiments() {
		r.layer("core.exp_ms."+e.ID, median(sw.ms[e.ID]), "ms")
		r.layer("core.exp_allocs."+e.ID, median(sw.allocs[e.ID]), "count")
	}
	r.layer("sim.events", float64(sw.stats.Events), "count")
	r.layer("sim.engines", float64(sw.stats.Engines), "count")
	r.layer("sim.proc_switches", float64(sw.stats.ProcSwitches), "count")
	r.layer("sim.ns_per_event", median(sw.wallNS)/float64(max(sw.stats.Events, 1)), "ns")
	r.layer("bench.render_ms", median(sw.render), "ms")
	r.layer("bench.write_json_ms", median(sw.encode), "ms")
}

// paperErr runs the study once, untimed, checks it against the pin, and
// records paper_err_pct over its rows. Every workload reports it, so a
// perf change that moves the model's numbers shows on all of them.
func paperErr(r *run) error {
	doc, err := studyJSON(core.RunAll(context.Background(), r.nproc))
	ok := err == nil && digest(doc) == r.pins.Study
	r.count(ok)
	if !ok {
		return fmt.Errorf("study output does not match the pinned digest (%v)", err)
	}
	rows, err := studyRows(doc)
	if err != nil {
		return err
	}
	pct, pairs := paperErrPct(rows)
	if pairs == 0 {
		return fmt.Errorf("study rows hold no paper_ pairs")
	}
	r.e2e("paper_err_pct", pct, "%")
	r.notes["paper_err_pairs"] = pairs
	return nil
}
