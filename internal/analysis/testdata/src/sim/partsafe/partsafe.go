// Package partsafe exercises the partition-isolation analyzer: its
// import path sits under the deterministic scope ("sim/..."), so any
// package-level-variable write reachable from the stand-in engine's
// dispatch surface must be flagged, while host-side writes, local state,
// and //armvirt:partshared waivers stay silent.
package partsafe

import "sim"

// Package-level state: writes from dispatch are cross-partition hazards.
var (
	hits   int64
	table  = map[string]int64{}
	hostN  int64
	waived int64
)

// Cell is partition-owned state threaded through the closures: writing
// it is the remediation shape, no global involved.
type Cell struct{ n int64 }

// Run hands closures and a named function to the dispatch surface.
func Run(e *sim.Engine, c *Cell) {
	e.Go(func() {
		hits++ // want `writes package-level partsafe.hits but is reachable from partitioned dispatch`
		c.n++  // partition-owned: fine
	})
	e.At(10, tick)
	e.SendTo(1, 20, func() {
		table["x"] = 1 // want `writes package-level partsafe.table`
	})
}

// tick is dispatch-reachable through the e.At above, so its writes are
// flagged even though it never references the engine itself.
func tick() {
	delete(table, "y") // want `writes package-level partsafe.table`
}

// deeper is reached transitively: dispatch closure -> helper -> write.
func Deeper(e *sim.Engine) {
	e.After(5, func() { helper() })
}

func helper() {
	hits-- // want `writes package-level partsafe.hits`
}

// Host runs on the host side only — nothing hands it to dispatch — so
// its global write is legal.
func Host() {
	hostN++
}

// Explicit hands callbacks to the explicit-partition forms that replace
// the ambient engine methods inside a multi-partition run: they are
// dispatch roots exactly like Engine.At/SendTo.
func Explicit(e *sim.Engine, p *sim.Proc) {
	p.SendTo(1, 20, func() {
		hits++ // want `writes package-level partsafe.hits`
	})
	h := e.Part(1)
	h.At(30, func() {
		table["at"] = 1 // want `writes package-level partsafe.table`
	})
	h.After(5, bump)
	h.SendTo(2, 20, func() {
		hits += 2 // want `writes package-level partsafe.hits`
	})
	h.Go(func() {
		table["go"] = 2 // want `writes package-level partsafe.table`
	})
	_ = p.Now() + h.Now() // reading clocks hands nothing to dispatch
}

// bump is dispatch-reachable through h.After above.
func bump() {
	hits++ // want `writes package-level partsafe.hits`
}

// Waive marks deliberately shared, externally synchronized state.
func Waive(e *sim.Engine) {
	e.Go(func() {
		//armvirt:partshared drained at quantum barriers by the host
		waived++
	})
}
