package core

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// TestEngineStatsPinned pins the engine work counters of R1 (hundreds of
// small engines whose processes mostly wake themselves) and PD1 (one
// partitioned engine) at absolute values. The counters are part of the
// reproducible output, and an engine fast path must leave them exactly
// as the plain event-heap dispatch would: a self-wake dispatched without
// the heap still counts as one event, consumes one sequence number, and
// reaches the heap high-water mark its push would have.
func TestEngineStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want sim.EngineStats
	}{
		{"R1", sim.EngineStats{Engines: 720, Events: 282440, ProcSwitches: 46280,
			ProcsSpawned: 960, HeapHighWater: 3, Cycles: 108629724}},
		{"PD1", sim.EngineStats{Engines: 1, Events: 20056, ProcSwitches: 19896,
			ProcsSpawned: 128, HeapHighWater: 16, Cycles: 76000, Windows: 2568,
			BarrierStallCycles: 378632, OutboxMsgs: 80}},
	} {
		var rep Report
		col := sim.CollectStats(func() { rep = RunOne(*ByID(tc.id)) })
		if rep.Err != nil {
			t.Fatalf("%s: %v", tc.id, rep.Err)
		}
		got := col.Snapshot()
		got.Parts = nil
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s engine stats:\n got %+v\nwant %+v", tc.id, got, tc.want)
		}
	}
}

// TestRunAllCarriesBindings: RunAll's workers run under the caller's whole
// binding, so a parallel study registers exactly the engines and telemetry
// samplers that running every experiment on the calling goroutine does.
// The engine-stats snapshot and the canonical telemetry CSV must match
// byte for byte.
func TestRunAllCarriesBindings(t *testing.T) {
	collect := func(run func()) (stats sim.EngineStats, statsJSON []byte, series string) {
		var col *sim.StatsCollector
		tcol := telemetry.Collect(10, func() { col = sim.CollectStats(run) })
		stats = col.Snapshot()
		statsJSON, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := telemetry.WriteCSV(&b, tcol.SortedSeries()); err != nil {
			t.Fatal(err)
		}
		return stats, statsJSON, b.String()
	}
	_, wantJSON, wantCSV := collect(func() {
		for _, e := range Experiments() {
			if rep := RunOne(e); rep.Err != nil {
				t.Errorf("%s: %v", e.ID, rep.Err)
			}
		}
	})
	got, gotJSON, gotCSV := collect(func() {
		for _, rep := range RunAll(context.Background(), 4) {
			if rep.Err != nil {
				t.Errorf("%s: %v", rep.ID, rep.Err)
			}
		}
	})
	t.Logf("%d engines, %d telemetry CSV lines", got.Engines, strings.Count(gotCSV, "\n"))
	if got.Engines == 0 {
		t.Fatal("RunAll registered no engines with the caller's collector")
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("engine stats under RunAll(4):\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if strings.Count(wantCSV, "\n") < 2 {
		t.Fatal("the serial study sampled no telemetry")
	}
	if gotCSV != wantCSV {
		t.Errorf("telemetry CSV under RunAll(4) differs from the serial study (%d vs %d bytes)", len(gotCSV), len(wantCSV))
	}
}
