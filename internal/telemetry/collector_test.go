package telemetry

import (
	"strings"
	"testing"

	"armvirt/internal/sim"
)

// boundSampler asks for a sampler the way hw.New does: through the
// binding a fresh engine resolved on the calling goroutine.
func boundSampler(ncpu, freqMHz int) *Sampler {
	return EngineSampler(sim.NewEngine(), ncpu, freqMHz)
}

// TestCollectorBinding: machines built under Collect get real samplers via
// EngineSampler; unbound goroutines get nil (the no-op sampler).
func TestCollectorBinding(t *testing.T) {
	if boundSampler(2, 1) != nil {
		t.Fatal("unbound goroutine got a non-nil bound sampler")
	}
	col := Collect(10, func() {
		s := boundSampler(2, 1)
		if s == nil {
			t.Error("EngineSampler returned nil under Collect")
			return
		}
		s.Count(5, 0, CtrDiskReq, 1)
	})
	if boundSampler(2, 1) != nil {
		t.Fatal("binding leaked past Collect")
	}
	if n := len(col.Samplers()); n != 1 {
		t.Fatalf("samplers registered = %d, want 1", n)
	}
	if got := col.Samplers()[0].Samples(); got != 1 {
		t.Fatalf("samples = %d, want 1", got)
	}
}

// TestCollectorInherit: sim.ForEach workers inherit the collector binding
// so samplers created off the main goroutine land in the same collector,
// and the workers' bindings end with ForEach.
func TestCollectorInherit(t *testing.T) {
	col := Collect(10, func() {
		sim.ForEach(4, 4, func(int) {
			s := boundSampler(1, 1)
			if s == nil {
				t.Error("worker did not inherit the collector binding")
				return
			}
			s.Count(1, 0, CtrNICIRQ, 1)
		})
	})
	if n := len(col.Samplers()); n != 4 {
		t.Fatalf("samplers = %d, want 4 (one per worker)", n)
	}
	if boundSampler(1, 1) != nil {
		t.Fatal("binding leaked past Collect")
	}
}

// TestInheritUnboundIsNoOp: sim.ForEach from an unbound goroutine leaves
// its workers unbound rather than panicking.
func TestInheritUnboundIsNoOp(t *testing.T) {
	sim.ForEach(1, 1, func(int) {
		if boundSampler(1, 1) != nil {
			t.Error("worker inherited a collector from an unbound parent")
		}
	})
}

// TestSamplerIntervalFromCollector: NewSampler converts the collector's
// microsecond interval into cycles at the machine's frequency.
func TestSamplerIntervalFromCollector(t *testing.T) {
	c := NewCollector(10)
	s := c.NewSampler(4, 2400)
	if got := s.Interval(); got != 24000 {
		t.Fatalf("interval = %d cycles, want 24000 (10us at 2400 MHz)", got)
	}
	if got := s.NCPU(); got != 4 {
		t.Fatalf("ncpu = %d, want 4", got)
	}
}

// TestSortedSeriesCanonical: SortedSeries orders machines by their CSV
// rendering so the merged output is stable regardless of sampler
// registration order.
func TestSortedSeriesCanonical(t *testing.T) {
	mk := func(order []int) string {
		c := NewCollector(10)
		samplers := make([]*Sampler, 2)
		for _, i := range order {
			samplers[i] = c.NewSampler(1, 1)
		}
		samplers[0].Count(5, 0, CtrDiskReq, 3)
		samplers[1].Count(5, 0, CtrNICIRQ, 7)
		var b strings.Builder
		if err := WriteCSV(&b, c.SortedSeries()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := mk([]int{0, 1}), mk([]int{1, 0}); a != b {
		t.Errorf("SortedSeries depends on registration order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestNilCollector: a nil collector hands out nil samplers, so unconfigured
// code paths stay zero-cost without guards.
func TestNilCollector(t *testing.T) {
	var c *Collector
	if s := c.NewSampler(4, 2400); s != nil {
		t.Fatal("nil collector returned a non-nil sampler")
	}
	if got := c.Samplers(); got != nil {
		t.Fatalf("nil collector has samplers: %v", got)
	}
	if got := c.SortedSeries(); len(got) != 0 {
		t.Fatalf("nil collector has series: %v", got)
	}
	detach := c.Bind()
	detach()
}
