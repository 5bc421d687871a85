package obs

import (
	"reflect"
	"testing"

	"armvirt/internal/sim"
)

// partitionedEngine returns an engine split into two partitions besides
// the shared partition 0, with a lookahead of 10 cycles.
func partitionedEngine() (*sim.Engine, sim.PartID, sim.PartID) {
	e := sim.NewEngine()
	e.SetLookahead(10)
	return e, e.AddPartition("p1"), e.AddPartition("p2")
}

// TestPartitionedRecorderMergeOrder: fibers on different partitions emit
// into the recorder's one set of buffers, and Events returns them in
// emission order — on a partitioned engine that is dispatch order, window
// by window with partitions in id order — with Seq numbering that order.
func TestPartitionedRecorderMergeOrder(t *testing.T) {
	e, p1, p2 := partitionedEngine()
	r := NewRecorder(2, 64)
	emit := func(part sim.PartID, pcpu int, name string, at sim.Time) {
		e.GoOn(part, name, func(p *sim.Proc) {
			p.Sleep(at)
			r.Emit(p.Now(), GuestExit, pcpu, "vm", 0, name, 0)
		})
	}
	// Spawned out of dispatch order to prove the order is the engine's.
	emit(p2, 1, "cpu1-late", 20)
	emit(p1, 0, "cpu0-late", 20)
	emit(p2, 1, "cpu1", 5)
	emit(0, -1, "shared", 5)
	emit(p1, 0, "cpu0", 5)
	e.Run()

	var got []string
	evs := r.Events()
	for i, ev := range evs {
		got = append(got, ev.Detail)
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	want := []string{"shared", "cpu0", "cpu1", "cpu0-late", "cpu1-late"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want %v", got, want)
	}
	if r.Total() != 5 || r.Count(GuestExit) != 5 {
		t.Fatalf("counts wrong: total=%d guest-exit=%d", r.Total(), r.Count(GuestExit))
	}
}

// TestPartitionNilSafe: a nil recorder stays a free no-op for fibers on a
// partitioned engine (the zero-cost nil-recorder idiom).
func TestPartitionNilSafe(t *testing.T) {
	e, p1, p2 := partitionedEngine()
	var r *Recorder
	for _, part := range []sim.PartID{p1, p2} {
		e.GoOn(part, "w", func(p *sim.Proc) {
			r.Span(p, "phase")
			r.ChargeCycles(p, "work", 10)
			r.Emit(p.Now(), IOKick, int(part)-1, "", -1, "x", 0)
			r.EndSpan(p)
		})
	}
	e.Run()
	if r.Total() != 0 || r.Events() != nil || r.Profile() != nil {
		t.Fatal("nil recorder reported activity")
	}
}

// TestPartitionedProfileMerge: spans charged by fibers on different
// partitions land in one deterministic tree, in dispatch order.
func TestPartitionedProfileMerge(t *testing.T) {
	run := func() string {
		e, p1, p2 := partitionedEngine()
		r := NewRecorder(2, 64)
		spawn := func(part sim.PartID, name, phase string, c int64) {
			e.GoOn(part, name, func(p *sim.Proc) {
				r.Span(p, phase)
				p.Sleep(sim.Time(c))
				r.ChargeCycles(p, "work", c)
				r.EndSpan(p)
			})
		}
		spawn(p2, "b", "phase-b", 70)
		spawn(p1, "a", "phase-a", 40)
		e.Run()
		return r.Profile().Folded()
	}
	first := run()
	want := "phase-a;work 40\nphase-b;work 70\n"
	if first != want {
		t.Fatalf("folded = %q, want %q", first, want)
	}
	if again := run(); again != first {
		t.Fatalf("folded profile differs on a repeat run:\nfirst: %q\nagain: %q", first, again)
	}
}

// TestPartitionedProfileLeaves: the profile of a run on a partitioned
// engine keeps the display names its fibers charged under, and its flat
// view sums one leaf across partitions.
func TestPartitionedProfileLeaves(t *testing.T) {
	e, p1, p2 := partitionedEngine()
	r := NewRecorder(2, 64)
	for _, part := range []sim.PartID{p1, p2} {
		e.GoOn(part, "w", func(p *sim.Proc) {
			r.Span(p, "phase")
			r.ChargeCycles(p, "VGIC Regs: save", 25)
			r.EndSpan(p)
		})
	}
	e.Run()
	want := []Leaf{{"VGIC Regs: save", 50}}
	if got := r.Profile().Leaves(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Leaves = %+v, want %+v", got, want)
	}
}

// TestSinglePartitionRecorderUnchanged: the default layout keeps the
// original global-Seq semantics byte for byte.
func TestSinglePartitionRecorderUnchanged(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Emit(5, GuestEnter, 0, "vm", 0, "a", 0)
	r.Emit(5, GuestEnter, 1, "vm", 1, "b", 0)
	r.Emit(7, IOKick, -1, "", -1, "c", 0)
	evs := r.Events()
	if len(evs) != 3 || evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 {
		t.Fatalf("single-partition seq order broken: %+v", evs)
	}
	if evs[0].Detail != "a" || evs[1].Detail != "b" || evs[2].Detail != "c" {
		t.Fatalf("single-partition order broken: %+v", evs)
	}
}
