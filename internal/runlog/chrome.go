package runlog

import (
	"fmt"
	"io"

	"armvirt/internal/obs"
)

// Chrome trace-event export of one ledger entry, built from obs's event
// type and written by obs's array writer: struct-typed events and args so
// field order (and therefore the serialized bytes) is fixed, metadata
// records first, one event per line inside a JSON array. The output loads
// directly in Perfetto / chrome://tracing.
//
// Track layout — the two timebases are separate track groups:
//
//   - pid 1 ("wall"): thread 0 ("request") carries the wall-time span
//     tree as nested "X" duration events in real microseconds: the root
//     request span, then cache / admission-wait / engine / render stages.
//   - pid 2 ("sim"): one thread per simulation engine the request ran
//     ("engine0", ...), each carrying a single "X" event whose duration
//     is the engine's total simulated cycles rendered on a
//     1 us == 1 cycle scale (simulated time is not wall time; the track
//     group keeps the unit honest), with the deterministic counters —
//     events dispatched, proc switches, procs spawned, heap high-water —
//     in the event args.
const (
	pidWall = 1
	pidSim  = 2
)

// traceEventArgs is the args payload; a struct (not a map) so field
// order is fixed.
type traceEventArgs struct {
	Name    string `json:"name,omitempty"` // metadata payload
	Detail  string `json:"detail,omitempty"`
	Cycles  int64  `json:"cycles,omitempty"`
	Events  int64  `json:"events,omitempty"`
	Switch  int64  `json:"proc_switches,omitempty"`
	Spawned int64  `json:"procs_spawned,omitempty"`
	HeapHW  int64  `json:"heap_high_water,omitempty"`
	// PDES health counters (multi-partition engines only; zero and
	// therefore omitted for sequential engines).
	Windows int64 `json:"windows,omitempty"`
	Stall   int64 `json:"barrier_stall_cycles,omitempty"`
	Outbox  int64 `json:"outbox_msgs,omitempty"`
}

func durUS(us int64) *float64 {
	d := float64(us)
	return &d
}

// WriteChromeTrace renders the entry as Chrome trace-event JSON with
// wall-time and sim-time as separate track groups. Output depends only
// on the entry's contents, so identical entries serialize byte-identically.
func WriteChromeTrace(w io.Writer, e *Entry) error {
	if e == nil {
		return fmt.Errorf("runlog: nil entry")
	}

	// Metadata: both track groups and their threads, fixed order.
	events := []any{
		obs.ChromeEvent{Name: "process_name", Ph: "M", Pid: pidWall, Args: &traceEventArgs{Name: "wall"}},
		obs.ChromeEvent{Name: "thread_name", Ph: "M", Pid: pidWall, Tid: 0, Args: &traceEventArgs{Name: "request"}},
	}
	if len(e.Engines) > 0 {
		events = append(events,
			obs.ChromeEvent{Name: "process_name", Ph: "M", Pid: pidSim, Args: &traceEventArgs{Name: "sim"}})
		for i := range e.Engines {
			events = append(events, obs.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pidSim, Tid: i,
				Args: &traceEventArgs{Name: fmt.Sprintf("engine%d", i)},
			})
		}
	}

	// Wall group: the root request span, then the stage tree in recorded
	// (pre-order) order. Nested X events on one thread render as a flame.
	detail := e.Endpoint
	if e.Target != "" {
		detail += " " + e.Target
	}
	if e.Outcome != "" {
		detail += " [" + e.Outcome + "]"
	}
	events = append(events, obs.ChromeEvent{
		Name: fmt.Sprintf("request %s", e.ID), Ph: "X", Ts: 0,
		Pid: pidWall, Tid: 0, Dur: durUS(e.TotalUS),
		Args: &traceEventArgs{Detail: detail},
	})
	e.EachSpan(func(s *Span) {
		events = append(events, obs.ChromeEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.StartUS),
			Pid: pidWall, Tid: 0, Dur: durUS(s.DurUS),
		})
	})

	// Sim group: one engine-run event per engine on its own thread, with
	// the deterministic counters as args. Multi-partition engines also get
	// a counter event per partition carrying the PDES health breakdown —
	// quantum windows, barrier-stall cycles, outbox messages.
	for i, es := range e.Engines {
		events = append(events, obs.ChromeEvent{
			Name: "engine run", Ph: "X", Ts: 0,
			Pid: pidSim, Tid: i, Dur: durUS(es.Cycles),
			Args: &traceEventArgs{
				Detail: "1us == 1 simulated cycle", Cycles: es.Cycles,
				Events: es.Events, Switch: es.ProcSwitches,
				Spawned: es.ProcsSpawned, HeapHW: es.HeapHighWater,
				Windows: es.Windows, Stall: es.BarrierStallCycles,
				Outbox: es.OutboxMsgs,
			},
		})
		for _, ps := range es.Parts {
			name := ps.Name
			if name == "" {
				name = fmt.Sprintf("part%d", ps.Part)
			}
			events = append(events, obs.ChromeEvent{
				Name: fmt.Sprintf("engine%d %s health", i, name), Ph: "C", Ts: 0,
				Pid: pidSim, Tid: i,
				Args: &traceEventArgs{
					Events: ps.Events, Windows: ps.Windows,
					Stall: ps.StallCycles, Outbox: ps.OutboxMsgs,
				},
			})
		}
	}

	return obs.WriteChromeJSON(w, events)
}
