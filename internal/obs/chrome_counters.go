package obs

// Chrome trace counter tracks: telemetry series rendered as "C" (counter)
// events so the guest/hyp utilization, steal time, run-queue depth, exit
// rate, and I/O counter series plot as stacked area charts beneath the
// pid 1/2 event tracks. Each sampled machine gets its own counter process
// (pid 3, 4, ...) and one sample per bucket per track. Counter args are
// maps — json.Marshal sorts map keys, so the output bytes are as
// deterministic as the series themselves.

import (
	"fmt"
	"io"

	"armvirt/internal/telemetry"
)

// pidCounterBase is the synthetic process id of the first machine's
// telemetry counter tracks; machine i uses pidCounterBase + i.
const pidCounterBase = 3

// counterEvent is one Chrome counter sample. Unlike ChromeEvent its args
// payload is a map: the keys are the counter's stacked sub-series.
type counterEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Pid  int              `json:"pid"`
	Args map[string]int64 `json:"args"`
}

// WriteChromeTraceWithCounters renders the recorder's stream exactly like
// WriteChromeTrace, then appends telemetry counter tracks: per-PCPU
// utilization by phase (guest/hyp/idle), steal cycles, run-queue depth,
// exits by reason, and machine-level event counters. A nil or empty series
// slice degenerates to WriteChromeTrace byte-for-byte.
func WriteChromeTraceWithCounters(w io.Writer, rec *Recorder, freqMHz int, series []telemetry.Series) error {
	if freqMHz <= 0 {
		return fmt.Errorf("obs: freqMHz must be positive, got %d", freqMHz)
	}
	all := buildChromeEvents(rec, freqMHz)
	all = append(all, buildCounterEvents(series)...)
	return WriteChromeJSON(w, all)
}

// buildCounterEvents turns telemetry snapshots into counter tracks.
// Everything iterates the snapshot's already-sorted column order or fixed
// CPU/bucket ranges, so the event order is a pure function of the series.
func buildCounterEvents(series []telemetry.Series) []any {
	var out []any
	for mi, ts := range series {
		if ts.Buckets == 0 {
			continue
		}
		pid := pidCounterBase + mi
		out = append(out, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: &traceArgs{Name: fmt.Sprintf("telemetry m%d", mi)},
		})
		for cpu := 0; cpu < ts.NCPU; cpu++ {
			out = append(out, cpuCounterEvents(ts, pid, cpu)...)
		}
		out = append(out, machineCounterEvents(ts, pid)...)
	}
	return out
}

// cpuCounterEvents emits one CPU's utilization, steal, run-queue, and
// exit-reason tracks. Tracks whose series never fire are omitted entirely
// so quiet CPUs do not bloat the trace.
func cpuCounterEvents(ts telemetry.Series, pid, cpu int) []any {
	var out []any
	util := fmt.Sprintf("pcpu%d util", cpu)
	steal := fmt.Sprintf("pcpu%d steal", cpu)
	runq := fmt.Sprintf("pcpu%d runq", cpu)
	exits := fmt.Sprintf("pcpu%d exits", cpu)
	haveUtil := ts.CPUTotal(telemetry.SeriesUtilGuest, cpu)+ts.CPUTotal(telemetry.SeriesUtilHyp, cpu) > 0
	haveSteal := ts.CPUTotal(telemetry.SeriesSteal, cpu) > 0
	haveRunq := ts.CPUTotal(telemetry.SeriesRunq, cpu) > 0
	for b := 0; b < ts.Buckets; b++ {
		t := ts.BucketUs(b)
		if haveUtil {
			g := ts.CPUBucket(telemetry.SeriesUtilGuest, cpu, b)
			h := ts.CPUBucket(telemetry.SeriesUtilHyp, cpu, b)
			idle := ts.Interval - g - h
			if idle < 0 {
				idle = 0
			}
			out = append(out, counterEvent{Name: util, Ph: "C", Ts: t, Pid: pid,
				Args: map[string]int64{"guest": g, "hyp": h, "idle": idle}})
		}
		if haveSteal {
			out = append(out, counterEvent{Name: steal, Ph: "C", Ts: t, Pid: pid,
				Args: map[string]int64{"cycles": ts.CPUBucket(telemetry.SeriesSteal, cpu, b)}})
		}
		if haveRunq {
			out = append(out, counterEvent{Name: runq, Ph: "C", Ts: t, Pid: pid,
				Args: map[string]int64{"depth": ts.CPUBucket(telemetry.SeriesRunq, cpu, b)}})
		}
		if args := reasonArgs(ts, telemetry.SeriesExit, cpu, b); args != nil {
			out = append(out, counterEvent{Name: exits, Ph: "C", Ts: t, Pid: pid, Args: args})
		}
	}
	return out
}

// machineCounterEvents emits the machine-level event-counter track: every
// SeriesCount column (any CPU) folded per counter name.
func machineCounterEvents(ts telemetry.Series, pid int) []any {
	var out []any
	for b := 0; b < ts.Buckets; b++ {
		args := map[string]int64{}
		for i := range ts.Cols {
			c := &ts.Cols[i]
			if c.Series != telemetry.SeriesCount || b >= len(c.Vals) || c.Vals[b] == 0 {
				continue
			}
			args[c.Name] += c.Vals[b]
		}
		if len(args) > 0 {
			out = append(out, counterEvent{Name: "counters", Ph: "C", Ts: ts.BucketUs(b), Pid: pid, Args: args})
		}
	}
	return out
}

// reasonArgs folds one bucket of a per-reason series (exits) for a CPU into
// counter args, nil when the bucket is empty.
func reasonArgs(ts telemetry.Series, series string, cpu, b int) map[string]int64 {
	var args map[string]int64
	for i := range ts.Cols {
		c := &ts.Cols[i]
		if c.Series != series || c.CPU != cpu || b >= len(c.Vals) || c.Vals[b] == 0 {
			continue
		}
		if args == nil {
			args = map[string]int64{}
		}
		args[c.Name] += c.Vals[b]
	}
	return args
}
