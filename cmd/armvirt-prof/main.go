// Command armvirt-prof runs the traced microbenchmark operations with the
// span profiler attached and emits per-phase cycle attributions — the
// paper's Table III methodology generalized to every operation and
// platform:
//
//	armvirt-prof -table                        # breakdown tables, all platforms/ops
//	armvirt-prof -folded > suite.folded        # flamegraph.pl / speedscope input
//	armvirt-prof -pprof prof.pb.gz             # go tool pprof prof.pb.gz
//	armvirt-prof -platform "KVM ARM" -op hypercall -table
//	armvirt-prof -platform "KVM ARM" -op vmswitch -trace-out sw.json   # Chrome timeline
//
// Units run on a worker pool (-j) but are assembled in a fixed order, so
// every output is byte-identical across runs and -j levels.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"armvirt/internal/bench"
	"armvirt/internal/cliutil"
	"armvirt/internal/micro"
	"armvirt/internal/obs"
)

func main() {
	platformFlag := flag.String("platform", "", "profile a single platform ("+cliutil.Quoted(bench.PlatformNames())+"; default all four paper platforms)")
	opFlag := flag.String("op", "", "profile a single operation ("+cliutil.Quoted(micro.TracedOps)+"; default all)")
	jobs := flag.Int("j", runtime.NumCPU(), "number of units to profile in parallel")
	table := flag.Bool("table", false, "print per-phase breakdown tables (default when no output is selected)")
	folded := flag.Bool("folded", false, "print collapsed-stack flamegraph lines to stdout")
	pprofOut := flag.String("pprof", "", "write a gzipped pprof profile to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the profiled run to this file (needs -platform and -op)")
	flag.Parse()
	cliutil.CheckJobs(*jobs)

	var labels, ops []string
	if *platformFlag != "" {
		cliutil.CheckChoice("platform", *platformFlag, bench.PlatformNames())
		labels = []string{*platformFlag}
	}
	if *opFlag != "" {
		cliutil.CheckChoice("op", *opFlag, micro.TracedOps)
		ops = []string{*opFlag}
	}
	if *traceOut != "" && (*platformFlag == "" || *opFlag == "") {
		fmt.Fprintln(os.Stderr, "-trace-out needs exactly one -platform and one -op")
		os.Exit(2)
	}
	if !*table && !*folded && *pprofOut == "" {
		*table = true
	}

	// A unit's panic reaches this goroutine (sim.ForEach re-raises it), so
	// it exits 1 with a message instead of a stack.
	var r bench.PhaseBreakdownResult
	if err := cliutil.Recover("profiling failed", func() {
		r = bench.RunPhaseBreakdowns(labels, ops, *jobs)
	}); err != nil {
		fail(err)
	}

	if *table {
		fmt.Print(r.Render())
	}
	if *folded {
		fmt.Print(r.Folded())
	}
	if *pprofOut != "" {
		if err := cliutil.WriteFile(*pprofOut, r.WritePprof); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d units to %s\n", len(r.Units), *pprofOut)
	}
	if *traceOut != "" {
		n, err := writeTrace(*traceOut, *platformFlag, *opFlag)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", n, *traceOut)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "armvirt-prof: %v\n", err)
	os.Exit(1)
}

// writeTrace profiles op on a fresh label platform again, this time with a
// full-size recorder attached, and writes its event stream — setup, warm-up
// and the measured operation — as Chrome trace-event JSON. It returns the
// number of events recorded.
func writeTrace(path, label, op string) (n int64, err error) {
	h := bench.Factories()[label]()
	m := h.Machine()
	rec := obs.NewRecorder(m.NCPU(), 0)
	m.SetRecorder(rec)
	if err := cliutil.Recover("profiling failed", func() { micro.ProfileOp(h, op) }); err != nil {
		return 0, err
	}
	return rec.Total(), cliutil.WriteFile(path, func(w io.Writer) error {
		return obs.WriteChromeTrace(w, rec, m.Cost.FreqMHz)
	})
}
