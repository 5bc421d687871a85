package bench

import (
	"encoding/json"
	"testing"

	"armvirt/internal/sim"
)

// TestFleetRowsIdenticalAcrossWorkers runs PD1 as registered — IPIs
// leaving through Proc.SendTo, deliveries landing through Part handles —
// at engine parallelism 1, 2, 4 and 8 and requires byte-identical rows,
// rendered text and merged engine stats.
func TestFleetRowsIdenticalAcrossWorkers(t *testing.T) {
	run := func(par int) (rows, stats []byte, text string) {
		detach := sim.BindParallelism(par)
		defer detach()
		var res FleetResult
		col := sim.CollectStats(func() { res = RunFleet() })
		rows, err := json.Marshal(res.Rows())
		if err != nil {
			t.Fatal(err)
		}
		stats, err = json.Marshal(col.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return rows, stats, res.Render()
	}
	baseRows, baseStats, baseText := run(1)
	if len(baseRows) < 100 || len(baseText) < 100 {
		t.Fatalf("degenerate PD1 output: %s", baseRows)
	}
	for _, par := range []int{2, 4, 8} {
		rows, stats, text := run(par)
		if string(rows) != string(baseRows) {
			t.Fatalf("par=%d rows differ from par=1:\n%s\n%s", par, rows, baseRows)
		}
		if string(stats) != string(baseStats) {
			t.Fatalf("par=%d engine stats differ from par=1:\n%s\n%s", par, stats, baseStats)
		}
		if text != baseText {
			t.Fatalf("par=%d rendered text differs from par=1", par)
		}
	}
}
