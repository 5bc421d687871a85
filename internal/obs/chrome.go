package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"armvirt/internal/sim"
)

// Chrome trace-event export: the recorded stream rendered as the JSON
// array format chrome://tracing and Perfetto load directly.
//
// Track layout:
//
//   - pid 1 ("pcpu"): one track per physical CPU plus a "machine" track.
//     Instant events (virq injections, I/O kicks, physical IRQ
//     deliveries, VM switches, scheduling decisions, Stage-2 faults) land
//     on the CPU they occurred on.
//   - pid 2 ("vcpu"): one track per VCPU, carrying the guest/hyp state
//     bands: a "guest" duration for every GuestEnter..GuestExit span and
//     a duration named by the exit reason for every GuestExit..GuestEnter
//     span.
//
// The writer visits events in emission order and assigns VCPU track ids
// in first-appearance order, so the output bytes are identical across
// runs of the same deterministic simulation.

// pidPCPU and pidVCPU are the synthetic process ids of the two track
// groups.
const (
	pidPCPU = 1
	pidVCPU = 2
)

// traceArgs is the args payload; a struct (not a map) so field order — and
// therefore the serialized bytes — is fixed.
type traceArgs struct {
	Name   string `json:"name,omitempty"` // metadata payload
	Detail string `json:"detail,omitempty"`
	Arg    int64  `json:"arg,omitempty"`
}

// ChromeEvent is one trace record, shared by every Chrome trace writer in
// the module. Field order matches the acceptance shape
// {"name","ph","ts","pid","tid",...}. Args holds a pointer to a struct
// payload (a struct, not a map, so its field order is fixed) or nil.
type ChromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Dur  *float64 `json:"dur,omitempty"`
	S    string   `json:"s,omitempty"`
	Args any      `json:"args,omitempty"`
}

// WriteChromeTrace renders the recorder's retained events as Chrome
// trace-event JSON. freqMHz converts cycle timestamps to the microsecond
// timebase the format expects. Enter/exit pairs are matched in event
// order, which is time order on an unpartitioned machine only; see
// Recorder.Events.
func WriteChromeTrace(w io.Writer, rec *Recorder, freqMHz int) error {
	if freqMHz <= 0 {
		return fmt.Errorf("obs: freqMHz must be positive, got %d", freqMHz)
	}
	return WriteChromeJSON(w, buildChromeEvents(rec, freqMHz))
}

// buildChromeEvents assembles the pid 1/2 track events (metadata first) in
// the deterministic order WriteChromeTrace documents.
func buildChromeEvents(rec *Recorder, freqMHz int) []any {
	us := func(t sim.Time) float64 { return float64(t) / float64(freqMHz) }

	events := rec.Events()
	var out []any

	// VCPU tracks, in first-appearance order.
	vcpuTid := map[string]int{}
	vcpuNames := []string{}
	tidOf := func(e Event) int {
		key := fmt.Sprintf("%s/vcpu%d", e.VM, e.VCPU)
		tid, ok := vcpuTid[key]
		if !ok {
			tid = len(vcpuNames)
			vcpuTid[key] = tid
			vcpuNames = append(vcpuNames, key)
		}
		return tid
	}

	type spanState struct {
		tid        int
		enterT     sim.Time
		exitT      sim.Time
		exitReason string
		inGuest    bool
		haveExit   bool
	}
	spans := map[int]*spanState{}
	span := func(e Event) *spanState {
		tid := tidOf(e)
		st, ok := spans[tid]
		if !ok {
			st = &spanState{tid: tid}
			spans[tid] = st
		}
		return st
	}
	dur := func(a, b sim.Time) *float64 {
		d := us(b) - us(a)
		return &d
	}

	maxPCPU := rec.NCPU() // tid of the machine-level track in pid 1
	for _, e := range events {
		switch e.Kind {
		case GuestEnter:
			st := span(e)
			if st.haveExit {
				out = append(out, ChromeEvent{
					Name: st.exitReason, Ph: "X", Ts: us(st.exitT),
					Pid: pidVCPU, Tid: st.tid, Dur: dur(st.exitT, e.T),
					Args: &traceArgs{Detail: "hyp"},
				})
				st.haveExit = false
			}
			st.inGuest = true
			st.enterT = e.T
		case GuestExit:
			st := span(e)
			if st.inGuest {
				out = append(out, ChromeEvent{
					Name: "guest", Ph: "X", Ts: us(st.enterT),
					Pid: pidVCPU, Tid: st.tid, Dur: dur(st.enterT, e.T),
				})
				st.inGuest = false
			}
			st.exitT = e.T
			st.exitReason = e.Detail
			st.haveExit = true
		default:
			tid := e.PCPU
			if tid < 0 || tid >= maxPCPU {
				tid = maxPCPU
			}
			ev := ChromeEvent{
				Name: e.Kind.String(), Ph: "i", Ts: us(e.T),
				Pid: pidPCPU, Tid: tid, S: "t",
			}
			if e.Detail != "" || e.Arg != 0 {
				ev.Args = &traceArgs{Detail: e.Detail, Arg: e.Arg}
			}
			out = append(out, ev)
		}
	}
	// Close any span still open at the end of the stream.
	tids := make([]int, 0, len(spans))
	for tid := range spans {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	var endT sim.Time
	if len(events) > 0 {
		endT = events[len(events)-1].T
	}
	for _, tid := range tids {
		st := spans[tid]
		if st.inGuest && endT > st.enterT {
			out = append(out, ChromeEvent{
				Name: "guest", Ph: "X", Ts: us(st.enterT),
				Pid: pidVCPU, Tid: tid, Dur: dur(st.enterT, endT),
			})
		}
	}

	// Metadata first: process and thread names for both track groups.
	meta := []any{
		ChromeEvent{Name: "process_name", Ph: "M", Pid: pidPCPU, Args: &traceArgs{Name: "pcpu"}},
		ChromeEvent{Name: "process_name", Ph: "M", Pid: pidVCPU, Args: &traceArgs{Name: "vcpu"}},
	}
	for i := 0; i < maxPCPU; i++ {
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidPCPU, Tid: i,
			Args: &traceArgs{Name: fmt.Sprintf("pcpu%d", i)},
		})
	}
	meta = append(meta, ChromeEvent{
		Name: "thread_name", Ph: "M", Pid: pidPCPU, Tid: maxPCPU,
		Args: &traceArgs{Name: "machine"},
	})
	for tid, name := range vcpuNames {
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidVCPU, Tid: tid,
			Args: &traceArgs{Name: name},
		})
	}

	return append(meta, out...)
}

// WriteChromeJSON writes the events as a JSON array, one record per line —
// the framing chrome://tracing and the jq assertions in CI both accept.
func WriteChromeJSON(w io.Writer, all []any) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range all {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(all)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
