package core

import (
	"reflect"
	"testing"

	"armvirt/internal/sim"
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
