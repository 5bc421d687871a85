// Cycle-attribution profiler: a hierarchical span tree that records where
// every simulated cycle charged through the cost model went.
//
// The paper's core explanatory move is cost *decomposition* — breaking the
// 6,500-cycle KVM ARM hypercall into EL2 entry, register banking, GIC
// save/restore and world-switch bookkeeping (Table III). The event bus
// records transitions; the profiler records what the cycles inside a
// transition paid for. Instrumented layers open named phases with
// Recorder.Span / Recorder.EndSpan around their work, and every cycle
// charged while a phase is open (hyp.VCPU.Charge, hw IPI dispatch, the
// scheduler's exclusive execution) is attributed to a leaf under the
// current phase stack, e.g. hypercall/exit-to-host/gic-save/vgic-regs-save.
//
// Span stacks are kept per simulated process (fiber): cycles are spent by
// whichever fiber calls Proc.Sleep, so the fiber — not the physical CPU —
// is the natural owner of the open-phase stack. All fibers share one
// Profile tree per Recorder; because the engine runs fibers one at a time,
// tree construction order is deterministic and exports are byte-identical
// across runs.
package obs

import (
	"fmt"
	"strings"

	"armvirt/internal/sim"
)

// pnode is one node of the span tree: a phase (interior) or a charge leaf.
// Children are kept in first-insertion order, which the single-threaded
// engine makes deterministic.
type pnode struct {
	name     string
	self     int64
	children []*pnode
	index    map[string]*pnode
}

func (n *pnode) child(name string) *pnode {
	if c, ok := n.index[name]; ok {
		return c
	}
	c := &pnode{name: name, index: map[string]*pnode{}}
	n.children = append(n.children, c)
	n.index[name] = c
	return c
}

// total returns self plus all descendant cycles.
func (n *pnode) total() int64 {
	t := n.self
	for _, c := range n.children {
		t += c.total()
	}
	return t
}

// Profile is the span tree of one recorded run. It is owned by a Recorder
// but remains valid (and stable) after the recorder is detached from its
// machine, so measurement code can snapshot-by-detach.
type Profile struct {
	root  *pnode
	slugs map[string]string
}

// NewProfile returns an empty profile. Recorders create one implicitly;
// the constructor exists for tests and standalone aggregation.
func NewProfile() *Profile {
	return &Profile{root: &pnode{index: map[string]*pnode{}}, slugs: map[string]string{}}
}

// Slug converts a display name ("GP Regs: save") into the stable frame
// label used in stacks ("gp-regs-save"): lower case, runs of
// non-alphanumerics collapsed to single dashes.
func Slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
			dash = false
		default:
			if b.Len() > 0 && !dash {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// slug is Slug with a per-profile memo, so hot charge paths do not rebuild
// the same label.
func (pf *Profile) slug(name string) string {
	if s, ok := pf.slugs[name]; ok {
		return s
	}
	s := Slug(name)
	pf.slugs[name] = s
	return s
}

// Total returns the sum of all attributed cycles.
func (pf *Profile) Total() int64 {
	if pf == nil {
		return 0
	}
	return pf.root.total()
}

// reset zeroes every node's cycles while keeping the tree structure (and
// therefore any open span cursors pointing into it) intact. Nodes whose
// subtree total is zero are skipped by the exports, so a warm-up phase
// leaves no trace in the output.
func (pf *Profile) reset() {
	var zero func(n *pnode)
	zero = func(n *pnode) {
		n.self = 0
		for _, c := range n.children {
			zero(c)
		}
	}
	zero(pf.root)
}

// ProfileEntry is one leaf of the span tree: the phase stack from the root
// and the cycles charged directly at that position.
type ProfileEntry struct {
	// Stack is the phase path, outermost first (the folded-stack frame
	// order).
	Stack []string
	// Cycles is the simulated-cycle count attributed at this position.
	Cycles int64
}

// Entries returns the profile's leaf entries — every (stack, cycles) pair
// with a non-zero charge — in deterministic first-insertion DFS order.
func (pf *Profile) Entries() []ProfileEntry {
	if pf == nil {
		return nil
	}
	var out []ProfileEntry
	var walk func(n *pnode, stack []string)
	walk = func(n *pnode, stack []string) {
		if n.self > 0 {
			out = append(out, ProfileEntry{Stack: append([]string(nil), stack...), Cycles: n.self})
		}
		for _, c := range n.children {
			walk(c, append(stack, c.name))
		}
	}
	walk(pf.root, nil)
	return out
}

// Leaf is one row of the profile's flat view: a charge name and the cycles
// attributed to it under every phase stack it was charged in.
type Leaf struct {
	Name   string
	Cycles int64
}

// Leaves returns the profile's flat view — the Table III shape: entry
// cycles summed by leaf frame, in first-insertion DFS order, each leaf
// named by the display name it was charged under ("VGIC Regs: save").
// Display names come from the slug memo; if several share a slug the
// lexicographically smallest is used.
func (pf *Profile) Leaves() []Leaf {
	if pf == nil {
		return nil
	}
	display := make(map[string]string, len(pf.slugs))
	for name, s := range pf.slugs {
		if d, ok := display[s]; !ok || name < d {
			display[s] = name
		}
	}
	idx := map[string]int{}
	var out []Leaf
	for _, e := range pf.Entries() {
		frame := e.Stack[len(e.Stack)-1]
		if i, ok := idx[frame]; ok {
			out[i].Cycles += e.Cycles
			continue
		}
		idx[frame] = len(out)
		out = append(out, Leaf{Name: display[frame], Cycles: e.Cycles})
	}
	return out
}

// TreeRow is one row of the rendered span tree: a phase or leaf with its
// depth, its own cycles and its subtree total.
type TreeRow struct {
	Depth       int
	Name        string
	Self, Total int64
}

// Tree returns the profile as indented rows in deterministic DFS order,
// skipping subtrees that charged nothing.
func (pf *Profile) Tree() []TreeRow {
	if pf == nil {
		return nil
	}
	var out []TreeRow
	var walk func(n *pnode, depth int)
	walk = func(n *pnode, depth int) {
		for _, c := range n.children {
			t := c.total()
			if t == 0 {
				continue
			}
			out = append(out, TreeRow{Depth: depth, Name: c.name, Self: c.self, Total: t})
			walk(c, depth+1)
		}
	}
	walk(pf.root, 0)
	return out
}

// Folded renders entries in Brendan Gregg's collapsed-stack format — one
// "frame;frame;leaf count" line per entry — ready for flamegraph.pl or
// speedscope. Entries keep their deterministic order; identical runs
// produce byte-identical output.
func Folded(entries []ProfileEntry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %d\n", strings.Join(e.Stack, ";"), e.Cycles)
	}
	return b.String()
}

// Folded is the profile's own entries in collapsed-stack form.
func (pf *Profile) Folded() string { return Folded(pf.Entries()) }

// --- Recorder span API -------------------------------------------------------

// profState is one partition's profiling half: a span tree plus one open
// span stack per simulated process. It is created lazily on first use so
// recorders used purely as event buses pay nothing. A single-partition
// recorder has exactly one; a partitioned recorder keeps one per
// partition, and Profile merges them in partition order, the order PD1's
// pinned profile bytes follow.
type profState struct {
	prof  *Profile
	spans map[*sim.Proc][]*pnode
}

// partOfProc returns the profiling partition for process p: its engine
// partition, clamped into the recorder's layout (a process of an
// unpartitioned machine is partition 0 either way).
func (r *Recorder) partOfProc(p *sim.Proc) int {
	if r == nil || r.nparts == 1 || p == nil {
		return 0
	}
	part := int(p.Part())
	if part < 0 || part >= r.nparts {
		return 0
	}
	return part
}

func (r *Recorder) prof(part int) *profState {
	if r.profiling[part] == nil {
		r.profiling[part] = &profState{prof: NewProfile(), spans: map[*sim.Proc][]*pnode{}}
	}
	return r.profiling[part]
}

// cursor returns the node new charges attach to for process p: the top of
// its open span stack, or the tree root when no span is open.
func (ps *profState) cursor(p *sim.Proc) *pnode {
	if st := ps.spans[p]; len(st) > 0 {
		return st[len(st)-1]
	}
	return ps.prof.root
}

// Span opens a named profiling phase for process p; cycles charged by p
// until the matching EndSpan are attributed under it. Phases nest. The
// name is slugged (Slug) to form the frame label. No-op on a nil recorder,
// so instrumentation stays free when observability is off.
func (r *Recorder) Span(p *sim.Proc, name string) {
	if r == nil {
		return
	}
	ps := r.prof(r.partOfProc(p))
	ps.spans[p] = append(ps.spans[p], ps.cursor(p).child(ps.prof.slug(name)))
}

// EndSpan closes process p's innermost open phase. Closing with no open
// phase is a lenient no-op (teardown paths may outlive their opener).
func (r *Recorder) EndSpan(p *sim.Proc) {
	if r == nil {
		return
	}
	ps := r.profiling[r.partOfProc(p)]
	if ps == nil {
		return
	}
	if st := ps.spans[p]; len(st) > 0 {
		ps.spans[p] = st[:len(st)-1]
	}
}

// ChargeCycles attributes c simulated cycles to the named leaf under
// process p's current phase stack. This is the single hook the cost-model
// choke points (hyp.VCPU.Charge, hw.Machine.SendIPI, sched.Dispatcher)
// call; c <= 0 and nil recorders record nothing.
func (r *Recorder) ChargeCycles(p *sim.Proc, name string, c int64) {
	if r == nil || c <= 0 {
		return
	}
	ps := r.prof(r.partOfProc(p))
	ps.cursor(p).child(ps.prof.slug(name)).self += c
}

// Profile returns the recorder's span tree (nil if nothing was ever
// profiled on a nil recorder). On a single-partition recorder this is the
// live tree. On a partitioned recorder it is a fresh merge of the
// per-partition trees in partition order — a pure function of the
// recorded content, and the order PD1's pinned profile bytes follow.
func (r *Recorder) Profile() *Profile {
	if r == nil {
		return nil
	}
	if r.nparts == 1 {
		return r.prof(0).prof
	}
	merged := NewProfile()
	for part := 0; part < r.nparts; part++ {
		ps := r.profiling[part]
		if ps == nil {
			continue
		}
		for _, e := range ps.prof.Entries() {
			merged.addPath(e.Stack, e.Cycles)
		}
		for name, s := range ps.prof.slugs {
			merged.slugs[name] = s
		}
	}
	return merged
}

// addPath accumulates cycles at the leaf addressed by the (already
// slugged) stack, creating interior nodes in first-insertion order.
func (pf *Profile) addPath(stack []string, cycles int64) {
	n := pf.root
	for _, frame := range stack {
		n = n.child(frame)
	}
	n.self += cycles
}

// ResetProfile zeroes all attributed cycles while keeping tree structure
// and open spans intact. Measurement harnesses call it after warm-up so
// exports cover exactly the measured window.
func (r *Recorder) ResetProfile() {
	if r == nil {
		return
	}
	for _, ps := range r.profiling {
		if ps != nil {
			ps.prof.reset()
		}
	}
}
