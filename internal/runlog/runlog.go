// Package runlog is the wall-clock side of the study's observability: a
// run ledger and request tracer for the serve tier. The simulated world
// attributes every simulated cycle to a phase (internal/obs, DESIGN.md
// §7); this package applies the same discipline to the serving layer's
// own overheads — where a request's *wall* time went (admission wait,
// cache lookup, engine execution, rendering) — and links the two
// timebases: every ledger entry pairs the wall-time span tree with a
// deterministic sim.EngineStats snapshot of the engines the request ran.
//
// The package deliberately lives outside the deterministic world: it
// reads the wall clock freely and is not in armvirt-vet's detclock scope
// (DESIGN.md §9). Nothing here may be imported by the 14 deterministic
// packages; the only shared vocabulary is sim.EngineStats, which flows
// out of the simulation, never in.
//
// Nil receivers are first-class, mirroring the obs nil-recorder idiom:
// a nil *Trace or *SpanHandle ignores every call, so instrumented code
// paths (serve.Admission.Do) need no conditionals when tracing is off.
package runlog

import (
	"context"
	"sync"
	"time"

	"armvirt/internal/sim"
)

// Span is one named wall-time stage of a request. Offsets and durations
// are microseconds relative to the request's start, so a span tree is
// self-contained and directly renderable as trace events.
type Span struct {
	Name string `json:"name"`
	// StartUS is the span's start offset from the request start.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration (filled at End; open spans are closed
	// at Finish time).
	DurUS    int64   `json:"dur_us"`
	Children []*Span `json:"children,omitempty"`

	open bool
}

// Walk visits s and every descendant in depth-first pre-order.
func (s *Span) Walk(visit func(*Span)) {
	if s == nil {
		return
	}
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}

// Entry is one ledger record: the identity, outcome, and dual-timebase
// cost breakdown of a single served request.
type Entry struct {
	// ID is the process-unique run id (also the X-Armvirt-Run header).
	ID string `json:"id"`
	// Start is the request's wall-clock start time.
	Start time.Time `json:"start"`
	// Endpoint is the logical route name ("experiment", "profile", ...).
	Endpoint string `json:"endpoint"`
	// Target names what ran: an experiment ID or "platform/op".
	Target string `json:"target,omitempty"`
	// Format is the requested output format, when the route has one.
	Format string `json:"format,omitempty"`
	// StudyHash is the content hash the serve cache keys on.
	StudyHash string `json:"study_hash,omitempty"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status"`
	// Outcome is the cache outcome ("hit", "miss", "shared") for routes
	// that consult the result cache.
	Outcome string `json:"outcome,omitempty"`
	// Upstream is the run ID of the replica that forwarded this request
	// here (the inbound X-Armvirt-Run header on a cluster-forwarded
	// request), so the owner's entry links back to the sender's ledger.
	Upstream string `json:"upstream,omitempty"`
	// Peer names the replica this request was forwarded to (the owner
	// of its cache key on the cluster ring), and PeerRun that replica's
	// run ID for the forwarded request — the other half of the
	// cross-replica trace link (DESIGN.md §13).
	Peer    string `json:"peer,omitempty"`
	PeerRun string `json:"peer_run,omitempty"`
	// Error carries the run-path error for non-2xx answers.
	Error string `json:"error,omitempty"`
	// TotalUS is the request's total wall time in microseconds.
	TotalUS int64 `json:"total_us"`
	// Spans is the wall-time stage tree (top-level spans are sequential
	// stages; their durations sum to at most TotalUS).
	Spans []*Span `json:"spans,omitempty"`
	// Engines holds one deterministic counter snapshot per simulation
	// engine the request ran, in creation order; Engine is their merge.
	// Identical requests produce identical snapshots (sim determinism),
	// which is what makes the dual-timebase link trustworthy.
	Engines []sim.EngineStats `json:"engines,omitempty"`
	Engine  *sim.EngineStats  `json:"engine,omitempty"`
}

// Trace accumulates one request's spans and metadata, then Finish turns
// it into an Entry. A Trace is used by one goroutine at a time (the
// request handler, or the singleflight leader executing its compute
// closure), but is internally locked so misuse degrades to confusion,
// not corruption. All methods are nil-safe.
type Trace struct {
	mu    sync.Mutex
	entry Entry
	start time.Time
	roots []*Span
	stack []*Span // open-span cursor; spans nest by Start/End bracketing
}

// NewTrace starts a trace for one request on the given logical endpoint.
// Ledger.Begin is the usual constructor (it also assigns the run ID).
func NewTrace(endpoint string) *Trace {
	t := &Trace{start: time.Now()}
	t.entry.Endpoint = endpoint
	t.entry.Start = t.start
	return t
}

// ID returns the run id assigned by the ledger ("" on a nil or
// free-standing trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entry.ID
}

// SetTarget records what the request ran and in which output format.
func (t *Trace) SetTarget(target, format string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.entry.Target, t.entry.Format = target, format
	t.mu.Unlock()
}

// SetOutcome records the cache outcome string.
func (t *Trace) SetOutcome(outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.entry.Outcome = outcome
	t.mu.Unlock()
}

// SetUpstream records the forwarding replica's run ID (the inbound
// X-Armvirt-Run header) on a cluster-forwarded request.
func (t *Trace) SetUpstream(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.entry.Upstream = id
	t.mu.Unlock()
}

// SetPeer records the replica a request was forwarded to and, when the
// peer answered, its run ID for the forwarded request.
func (t *Trace) SetPeer(peer, run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.entry.Peer, t.entry.PeerRun = peer, run
	t.mu.Unlock()
}

// SetError records the run-path error rendered into the entry.
func (t *Trace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.entry.Error = err.Error()
	t.mu.Unlock()
}

// SetEngineStats records the per-engine deterministic counter snapshots
// collected while the request's engines ran.
func (t *Trace) SetEngineStats(per []sim.EngineStats) {
	if t == nil || len(per) == 0 {
		return
	}
	var total sim.EngineStats
	for _, s := range per {
		total.Merge(s)
	}
	t.mu.Lock()
	t.entry.Engines = per
	t.entry.Engine = &total
	t.mu.Unlock()
}

// SpanHandle closes one span opened with Trace.Start.
type SpanHandle struct {
	t *Trace
	s *Span
}

// Start opens a named span as a child of the innermost open span (or as
// a new top-level stage). Close it with End; spans still open at Finish
// are closed at the request's end.
func (t *Trace) Start(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, StartUS: t.sinceUS(), open: true}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.Children = append(parent.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	return &SpanHandle{t: t, s: s}
}

// End closes the span. Closing out of order closes every span opened
// after it as well (they end where their parent ends).
func (h *SpanHandle) End() {
	if h == nil || h.t == nil {
		return
	}
	t := h.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if !h.s.open {
		return
	}
	end := t.sinceUS()
	for i := len(t.stack) - 1; i >= 0; i-- {
		s := t.stack[i]
		s.DurUS = end - s.StartUS
		s.open = false
		if s == h.s {
			t.stack = t.stack[:i]
			return
		}
	}
}

// sinceUS is the microsecond offset from the trace start. Called with
// t.mu held.
func (t *Trace) sinceUS() int64 {
	return int64(time.Since(t.start) / time.Microsecond)
}

// Finish closes the trace: any still-open spans end at the request's
// end, TotalUS and Status are recorded, and the completed Entry is
// returned. Finish a trace exactly once; a nil trace returns nil.
func (t *Trace) Finish(status int) *Entry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.sinceUS()
	for i := len(t.stack) - 1; i >= 0; i-- {
		s := t.stack[i]
		s.DurUS = end - s.StartUS
		s.open = false
	}
	t.stack = nil
	t.entry.Status = status
	t.entry.TotalUS = end
	t.entry.Spans = t.roots
	e := t.entry
	return &e
}

// traceKey carries a *Trace through a request context.
type traceKey struct{}

// WithTrace returns ctx carrying tr.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace carried by ctx, or nil. The nil trace is
// fully usable (every method is a no-op), so instrumented code needs no
// presence check.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
