package workload

import (
	"strings"
	"sync"
	"testing"

	"armvirt/internal/platform"
	"armvirt/internal/telemetry"
)

// fleetTelemetryCSV runs the fleet on a partitioned machine under a
// telemetry collector and renders the full series as CSV.
func fleetTelemetryCSV() (string, error) {
	col := telemetry.Collect(10, func() {
		Fleet(platform.ARMMachinePartitioned(), fleetTestParams)
	})
	var b strings.Builder
	err := telemetry.WriteCSV(&b, col.SortedSeries())
	return b.String(), err
}

// TestFleetTelemetryDeterministicAcrossWorkers is the telemetry half of the
// fleet determinism contract: the sampled time series renders
// byte-identically across repeated runs, including runs made concurrently
// from worker goroutines, each under its own collector.
func TestFleetTelemetryDeterministicAcrossWorkers(t *testing.T) {
	base, err := fleetTelemetryCSV()
	if err != nil {
		t.Fatal(err)
	}
	if base == "" || strings.Count(base, "\n") < 2 {
		t.Fatalf("degenerate telemetry baseline:\n%s", base)
	}
	got := make([]string, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := 1; i < len(got); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = fleetTelemetryCSV()
		}()
	}
	got[0], errs[0] = fleetTelemetryCSV()
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != base {
			t.Fatalf("run %d: telemetry series differ from the first run\n got:\n%s\nwant:\n%s", i, got[i], base)
		}
	}
}

// TestFleetTelemetryContent checks the sampled series carry the signals the
// fleet workload feeds: contention-phase steal time and run-queue depth
// from the dispatcher, and IRQ-delivery latency from the epoch leaders.
// (Guest/hyp utilization and exit counts come from the hypervisor paths,
// exercised by the VM experiments; the fleet runs bare fibers.)
func TestFleetTelemetryContent(t *testing.T) {
	col := telemetry.Collect(10, func() {
		Fleet(platform.ARMMachinePartitioned(), FleetParams{Fibers: 8, Tokens: 6, Hops: 15, Epochs: 6, HopCycles: 40,
			ContendRounds: 4, ContendCycles: 400})
	})
	samplers := col.Samplers()
	if len(samplers) != 1 {
		t.Fatalf("samplers = %d, want 1 (one machine)", len(samplers))
	}
	ts := samplers[0].Series()
	if ts.Buckets == 0 {
		t.Fatal("no telemetry buckets sampled")
	}

	total := func(series, name string) int64 {
		var sum int64
		for _, c := range ts.Cols {
			if c.Series == series && (name == "" || c.Name == name) {
				for _, v := range c.Vals {
					sum += v
				}
			}
		}
		return sum
	}
	if total(telemetry.SeriesSteal, "") == 0 {
		t.Error("no steal time sampled during the contended phase")
	}
	if total(telemetry.SeriesRunq, "") == 0 {
		t.Error("no run-queue depth sampled during the contended phase")
	}
	var irqObs int64
	for _, h := range ts.IRQLatency {
		irqObs += h.N
	}
	if irqObs == 0 {
		t.Error("no IRQ-delivery latency observations")
	}
}
