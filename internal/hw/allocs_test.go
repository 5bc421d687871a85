//go:build !race

// Allocation pins: the race detector instruments allocation and makes the
// counts vary run to run, so these tests build only without it.

package hw

import (
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/sim"
)

// TestConstructionAllocs pins what building a machine costs while no
// goroutine binding exists anywhere: the registry is skipped without
// identifying the caller (a goroutine-id lookup allocates its stack
// buffer, so one creeping back fails here). Under a binding, NewEngine
// consults the registry exactly once and hw.New reads the telemetry
// binding from the engine instead of looking again.
func TestConstructionAllocs(t *testing.T) {
	cfg := Config{Arch: cpu.ARM, NCPU: 8, Cost: armCost()}
	engine := testing.AllocsPerRun(500, func() { sim.NewEngine() })
	machine := testing.AllocsPerRun(500, func() { New(cfg) })
	if engine != 3 || machine != 78 {
		t.Fatalf("unbound NewEngine/hw.New allocate %v/%v times, want 3/78", engine, machine)
	}
	detach := sim.BindParallelism(2)
	defer detach()
	boundEngine := testing.AllocsPerRun(500, func() { sim.NewEngine() })
	boundMachine := testing.AllocsPerRun(500, func() { New(cfg) })
	if boundEngine != engine+1 || boundMachine != machine+1 {
		t.Fatalf("bound NewEngine/hw.New allocate %v/%v times, want one lookup each (%v/%v)",
			boundEngine, boundMachine, engine+1, machine+1)
	}
}
