// Package bindcheck exercises the collector-binding analyzer: a `go`
// statement whose goroutine reaches the stand-in sim.NewEngine or
// telemetry.EngineSampler must bind the goroutine-scoped collectors
// first. The worker-pool idiom, deep binds, engine-free goroutines, and
// //armvirt:unbound waivers stay silent.
package bindcheck

import (
	"sim"
	"telemetry"
)

// BadEngine spawns a goroutine that builds an engine with no bind: its
// stats silently vanish from the merged report.
func BadEngine() {
	go func() { // want `goroutine reaches sim.NewEngine without binding a stats collector`
		e := sim.NewEngine()
		e.Run()
	}()
}

// BadNamed launches a named function; reachability crosses the call.
func BadNamed() {
	go buildAndRun() // want `goroutine reaches sim.NewEngine without binding a stats collector`
}

func buildAndRun() {
	e := sim.NewEngine()
	e.Run()
}

// BadSampler drops telemetry instead of stats.
func BadSampler() {
	go func() { // want `goroutine reaches telemetry.EngineSampler without binding a telemetry collector`
		_ = telemetry.EngineSampler(8)
	}()
}

// BadStatsOnly binds stats but not telemetry: the sim-side bind does not
// cover the telemetry half of the binding, so the machine-style sampler
// silently records nothing.
func BadStatsOnly() {
	bind := sim.InheritStats()
	go func() { // want `goroutine reaches telemetry.EngineSampler without binding`
		defer bind()()
		e := sim.NewEngine()
		e.Run()
		_ = telemetry.EngineSampler(8)
	}()
}

// GoodRegistryBind binds through the sim registry entry the telemetry
// wrappers delegate to.
func GoodRegistryBind(c *telemetry.Collector) {
	bind := sim.InheritStats()
	go func() {
		defer bind()()
		defer sim.BindTelemetry(c)()
		e := sim.NewEngine()
		e.Run()
		_ = telemetry.EngineSampler(8)
	}()
}

// GoodWorker is the blessed worker-pool idiom: capture the binds before
// the go statement, attach first thing inside the goroutine.
func GoodWorker() {
	bind := sim.InheritStats()
	tbind := telemetry.Inherit()
	go func() {
		detach := bind()
		defer detach()
		tdetach := tbind()
		defer tdetach()
		e := sim.NewEngine()
		e.Run()
		_ = telemetry.EngineSampler(8)
	}()
}

// GoodDeep binds inside a helper: anywhere in the goroutine's reachable
// closure counts.
func GoodDeep() {
	go func() {
		boundRun()
	}()
}

func boundRun() {
	c := sim.CollectStats()
	defer c.Bind()()
	e := sim.NewEngine()
	e.Run()
}

// Plain goroutines that never touch engine or telemetry code are not
// this analyzer's business.
func Plain(ch chan int) {
	go func() { ch <- 1 }()
}

// Dynamic launch targets (function values) are not statically
// resolvable; the analyzer stays conservative and silent.
func Dynamic(f func()) {
	go f()
}

// Waived runs intentionally unobserved.
func Waived() {
	//armvirt:unbound throwaway engine, stats discarded by design
	go func() {
		e := sim.NewEngine()
		e.Run()
	}()
}
