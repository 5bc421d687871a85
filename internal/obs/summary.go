package obs

import (
	"fmt"
	"sort"
	"strings"

	"armvirt/internal/sim"
	"armvirt/internal/stats"
)

// ReasonStat aggregates one exit reason, kvm_stat style: how often the
// guest exited for this reason and how many cycles each exit kept the VCPU
// out of guest mode (stamped GuestExit to the VCPU's next GuestEnter, so
// blocking exits like wfi include their idle wait).
type ReasonStat struct {
	Reason string
	Count  int64
	// Cycles is the total not-in-guest time attributed to this reason.
	Cycles int64
	// Hist is the per-exit cycle distribution.
	Hist *stats.Histogram
}

// Summary is the aggregated view of one recorded run.
type Summary struct {
	// Counts holds the per-kind emission counters (including events that
	// were later dropped from their ring).
	Counts map[Kind]int64
	// Reasons is the exit-reason table, sorted by attributed cycles
	// descending (ties by name).
	Reasons []ReasonStat
	// GuestCycles is the total time VCPUs spent in guest mode.
	GuestCycles int64
	// HypCycles is the total attributed not-in-guest time (the sum over
	// Reasons).
	HypCycles int64
	// Span is the time from the first to the last retained event.
	Span sim.Time
	// Dropped counts ring-buffer overwrites; nonzero means the per-exit
	// attribution is computed over a truncated window.
	Dropped int64
}

// hypercallReasons are the exit reasons counted as hypercalls in the
// headline: explicit hypercalls plus the guest->hypervisor I/O kick traps
// (an hvc on Xen's event channel path, a trapped MMIO write on KVM's
// ioeventfd path) that serve the same role.
var hypercallReasons = map[string]bool{
	"hypercall": true, "mmio-kick": true, "evtchn-kick": true,
}

// Summarize aggregates a recorder's retained event stream. Safe on a nil
// or empty recorder (returns an all-zero summary). Span assumes the stream
// is time-ordered, which holds on an unpartitioned machine only; see
// Recorder.Events.
func Summarize(rec *Recorder) *Summary {
	s := &Summary{Counts: map[Kind]int64{}}
	for _, k := range Kinds {
		s.Counts[k] = rec.Count(k)
	}
	s.Dropped = rec.Dropped()

	type vcpuState struct {
		inGuest    bool
		enterT     sim.Time
		exitT      sim.Time
		exitReason string
		haveExit   bool
	}
	states := map[string]*vcpuState{}
	reasons := map[string]*ReasonStat{}
	state := func(e Event) *vcpuState {
		key := fmt.Sprintf("%s/%d", e.VM, e.VCPU)
		st, ok := states[key]
		if !ok {
			st = &vcpuState{}
			states[key] = st
		}
		return st
	}

	events := rec.Events()
	if len(events) > 0 {
		s.Span = events[len(events)-1].T - events[0].T
	}
	for _, e := range events {
		switch e.Kind {
		case GuestExit:
			st := state(e)
			if st.inGuest {
				s.GuestCycles += int64(e.T - st.enterT)
			}
			st.inGuest = false
			st.exitT = e.T
			st.exitReason = e.Detail
			st.haveExit = true
			r, ok := reasons[e.Detail]
			if !ok {
				r = &ReasonStat{Reason: e.Detail, Hist: stats.NewHistogram()}
				reasons[e.Detail] = r
			}
			r.Count++
		case GuestEnter:
			st := state(e)
			if st.haveExit {
				c := int64(e.T - st.exitT)
				r := reasons[st.exitReason]
				r.Cycles += c
				r.Hist.Observe(c)
				s.HypCycles += c
				st.haveExit = false
			}
			st.inGuest = true
			st.enterT = e.T
		}
	}

	for _, r := range reasons {
		s.Reasons = append(s.Reasons, *r)
	}
	sort.Slice(s.Reasons, func(i, j int) bool {
		if s.Reasons[i].Cycles != s.Reasons[j].Cycles {
			return s.Reasons[i].Cycles > s.Reasons[j].Cycles
		}
		return s.Reasons[i].Reason < s.Reasons[j].Reason
	})
	return s
}

// Exits returns the total exit count across reasons.
func (s *Summary) Exits() int64 { return s.Counts[GuestExit] }

// Hypercalls returns the number of hypercall-class exits: explicit
// hypercalls plus the I/O kick traps (see hypercallReasons).
func (s *Summary) Hypercalls() int64 {
	var n int64
	for _, r := range s.Reasons {
		if hypercallReasons[r.Reason] {
			n += r.Count
		}
	}
	return n
}

// VirqInjections returns the virtual-interrupt injection count.
func (s *Summary) VirqInjections() int64 { return s.Counts[VirqInject] }

// VMSwitches returns the VM-switch count (scheduler switches plus
// idle-domain / host-idle block-wake round trips).
func (s *Summary) VMSwitches() int64 { return s.Counts[VMSwitch] }

// Headline renders the one-line run report every workload can print.
func (s *Summary) Headline() string {
	return fmt.Sprintf("%d hypercalls, %d virq injections, %d VM switches, %d exits in %d cycles",
		s.Hypercalls(), s.VirqInjections(), s.VMSwitches(), s.Exits(), int64(s.Span))
}

// Render returns the kvm_stat-style report: per-kind counters followed by
// the exit-reason table with attributed cycles. Output is deterministic.
func (s *Summary) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "events recorded: %d  dropped: %d  span: %d cycles\n",
		sumCounts(s.Counts), s.Dropped, int64(s.Span))
	fmt.Fprintf(&sb, "in-guest cycles: %d  attributed hypervisor cycles: %d\n\n", s.GuestCycles, s.HypCycles)

	fmt.Fprintf(&sb, "%-14s %10s\n", "event", "count")
	for _, k := range Kinds {
		if s.Counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-14s %10d\n", k, s.Counts[k])
	}

	if len(s.Reasons) > 0 {
		fmt.Fprintf(&sb, "\n%-14s %8s %6s %14s %10s %10s %10s\n",
			"exit reason", "count", "%", "cycles", "avg", "p50", "p95")
		total := s.Exits()
		for _, r := range s.Reasons {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(r.Count) / float64(total)
			}
			fmt.Fprintf(&sb, "%-14s %8d %5.1f%% %14d %10.0f %10.0f %10.0f\n",
				r.Reason, r.Count, pct, r.Cycles, r.Hist.HMean(),
				r.Hist.Quantile(0.50), r.Hist.Quantile(0.95))
		}
		fmt.Fprintf(&sb, "%-14s %8d %5.1f%% %14d\n", "TOTAL", total, 100.0, s.HypCycles)
	}
	return sb.String()
}

func sumCounts(m map[Kind]int64) int64 {
	var t int64
	for _, k := range Kinds {
		t += m[k]
	}
	return t
}
