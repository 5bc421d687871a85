// bindcheck: a goroutine that builds an engine or sampler must bind the
// goroutine-scoped collectors first.
//
// sim.StatsCollector and telemetry.Collector attach to goroutines, not
// to engines: sim.NewEngine consults the *calling goroutine's* binding —
// one registry holding both collectors — when it registers for stats and
// keeps the telemetry half for telemetry.EngineSampler (which hw.New
// calls). The worker-pool idiom (DESIGN.md §10, §12) is therefore
//
//	bind := sim.InheritStats()
//	tbind := telemetry.Inherit()
//	go func() {
//	        detach := bind()
//	        defer detach()
//	        tdetach := tbind()
//	        defer tdetach()
//	        ... sim.NewEngine() / hw.New(...) / telemetry.EngineSampler(...) ...
//	}()
//
// Forgetting the bind() does not fail: the engine simply registers with
// no collector and its EngineStats vanish from the merged report — the
// silently-wrong class of bug that once took a debugging session to
// find. bindcheck makes it a compile-time finding:
// for every `go` statement whose launched function is statically
// resolvable, it walks the module call graph from the launched body; if
// anything reachable calls sim.NewEngine without a sim-side bind
// (Bind/CollectStats/InheritStats-bind) anywhere in that same closure, or telemetry.EngineSampler without a telemetry-side bind (the telemetry wrappers Bind/Collect/
// Inherit-bind, or sim.BindTelemetry they delegate to), the launch site
// is reported.
//
// The check is launch-site scoped on purpose: binds on the spawning
// goroutine do not carry over (that is the bug), so only code reachable
// from the launched function counts. Goroutines the runtime spawns
// (http handlers) are invisible here — their entry points bind via
// telemetry.Collect/sim.CollectStats at the handler seam, which this
// analyzer sees when those handlers are themselves launched by a `go`
// in the module.
//
// Escape: `//armvirt:unbound` on the `go` statement's line (or the line
// above) for launches that intentionally run unobserved.
package analysis

// Bindcheck is the goroutine collector-binding analyzer.
var Bindcheck = &Analyzer{
	Name: "bindcheck",
	Doc: "a `go` statement whose goroutine reaches sim.NewEngine or telemetry.EngineSampler must bind the " +
		"goroutine-scoped collectors first (sim.InheritStats / telemetry.Inherit; escape: //armvirt:unbound)",
	Run: runBindcheck,
}

func runBindcheck(pass *Pass) error {
	suppress := directiveLines(pass.Fset, pass.Files, "unbound")
	for _, id := range pass.Module.FuncsOf(pass.Pkg.Path()) {
		ff := pass.Module.Funcs[id]
		for _, site := range ff.GoSites {
			if site.Target == "" {
				continue // dynamic function value: not statically resolvable
			}
			if suppressedAt(suppress, pass.Fset.Position(site.Pos)) {
				continue
			}
			var createsEngine, bindsSim, createsSampler, bindsTel bool
			for node := range pass.Module.Reach(site.Target) {
				tf, ok := pass.Module.Funcs[node]
				if !ok {
					continue
				}
				createsEngine = createsEngine || tf.CreatesEngine
				bindsSim = bindsSim || tf.BindsSim
				createsSampler = createsSampler || tf.CreatesSampler
				bindsTel = bindsTel || tf.BindsTelemetry
			}
			if createsEngine && !bindsSim {
				pass.ReportRange(site.Pos, site.End,
					"goroutine reaches sim.NewEngine without binding a stats collector; "+
						"capture bind := sim.InheritStats() before the go statement and call bind() first in the goroutine (escape: //armvirt:unbound)")
			}
			if createsSampler && !bindsTel {
				pass.ReportRange(site.Pos, site.End,
					"goroutine reaches telemetry.EngineSampler without binding a telemetry collector; "+
						"capture tbind := telemetry.Inherit() before the go statement and call tbind() first in the goroutine (escape: //armvirt:unbound)")
			}
		}
	}
	return nil
}
