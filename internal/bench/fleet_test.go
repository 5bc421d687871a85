package bench

import (
	"encoding/json"
	"sync"
	"testing"

	"armvirt/internal/sim"
)

// TestFleetRowsIdenticalAcrossWorkers runs PD1 as registered — IPIs
// leaving through Proc.SendTo, deliveries landing through Part handles —
// on the calling goroutine and concurrently on worker goroutines, the way
// core.RunAll -j and concurrent serve requests run it, and requires
// byte-identical rows, rendered text and merged engine stats.
func TestFleetRowsIdenticalAcrossWorkers(t *testing.T) {
	type out struct {
		rows, stats []byte
		text        string
		err         error
	}
	run := func() (o out) {
		var res FleetResult
		col := sim.CollectStats(func() { res = RunFleet() })
		if o.rows, o.err = json.Marshal(res.Rows()); o.err != nil {
			return o
		}
		o.stats, o.err = json.Marshal(col.Snapshot())
		o.text = res.Render()
		return o
	}
	base := run()
	if base.err != nil {
		t.Fatal(base.err)
	}
	if len(base.rows) < 100 || len(base.text) < 100 {
		t.Fatalf("degenerate PD1 output: %s", base.rows)
	}
	runs := make([]out, 3)
	var wg sync.WaitGroup
	for i := 1; i < len(runs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = run()
		}()
	}
	runs[0] = run()
	wg.Wait()
	for i, o := range runs {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if string(o.rows) != string(base.rows) {
			t.Fatalf("run %d rows differ from the first run:\n%s\n%s", i, o.rows, base.rows)
		}
		if string(o.stats) != string(base.stats) {
			t.Fatalf("run %d engine stats differ from the first run:\n%s\n%s", i, o.stats, base.stats)
		}
		if o.text != base.text {
			t.Fatalf("run %d rendered text differs from the first run", i)
		}
	}
}
