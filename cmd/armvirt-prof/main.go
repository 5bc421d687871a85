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
	"os"
	"runtime"
	"slices"
	"strings"

	"armvirt/internal/bench"
	"armvirt/internal/cliutil"
	"armvirt/internal/micro"
	"armvirt/internal/obs"
)

func main() {
	platformFlag := flag.String("platform", "", `profile a single platform ("KVM ARM", "Xen ARM", "KVM x86", "Xen x86", "KVM ARM (VHE)"; default all four paper platforms)`)
	opFlag := flag.String("op", "", "profile a single operation ("+strings.Join(micro.TracedOps, ", ")+"; default all)")
	jobs := flag.Int("j", runtime.NumCPU(), "number of units to profile in parallel")
	table := flag.Bool("table", false, "print per-phase breakdown tables (default when no output is selected)")
	folded := flag.Bool("folded", false, "print collapsed-stack flamegraph lines to stdout")
	pprofOut := flag.String("pprof", "", "write a gzipped pprof profile to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the profiled run to this file (needs -platform and -op)")
	flag.Parse()
	cliutil.CheckJobs(*jobs)

	var labels, ops []string
	if *platformFlag != "" {
		if _, ok := bench.Factories()[*platformFlag]; !ok {
			fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platformFlag)
			os.Exit(2)
		}
		labels = []string{*platformFlag}
	}
	if *opFlag != "" {
		if !slices.Contains(micro.TracedOps, *opFlag) {
			fmt.Fprintf(os.Stderr, "unknown op %q; choose one of %v\n", *opFlag, micro.TracedOps)
			os.Exit(2)
		}
		ops = []string{*opFlag}
	}
	if *traceOut != "" && (*platformFlag == "" || *opFlag == "") {
		fmt.Fprintln(os.Stderr, "-trace-out needs exactly one -platform and one -op")
		os.Exit(2)
	}
	if !*table && !*folded && *pprofOut == "" {
		*table = true
	}

	r, err := run(labels, ops, *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-prof: %v\n", err)
		os.Exit(1)
	}

	if *table {
		fmt.Print(r.Render())
	}
	if *folded {
		fmt.Print(r.Folded())
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *pprofOut, err)
			os.Exit(1)
		}
		if err := r.WritePprof(f); err != nil {
			fmt.Fprintf(os.Stderr, "write pprof: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close %s: %v\n", *pprofOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d units to %s\n", len(r.Units), *pprofOut)
	}
	if *traceOut != "" {
		n, err := writeTrace(*traceOut, *platformFlag, *opFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "armvirt-prof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", n, *traceOut)
	}
}

// writeTrace profiles op on a fresh label platform again, this time with a
// full-size recorder attached, and writes its event stream — setup, warm-up
// and the measured operation — as Chrome trace-event JSON. It returns the
// number of events recorded.
func writeTrace(path, label, op string) (n int64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("profiling failed: %v", rec)
		}
	}()
	h := bench.Factories()[label]()
	m := h.Machine()
	rec := obs.NewRecorder(m.NCPU(), 0)
	m.SetRecorder(rec)
	micro.ProfileOp(h, op)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := obs.WriteChromeTrace(f, rec, m.Cost.FreqMHz); err != nil {
		f.Close()
		return 0, err
	}
	return rec.Total(), f.Close()
}

// run executes the profiling suite, converting a panic in any unit into an
// error so the process exits non-zero instead of crashing with a stack.
func run(labels, ops []string, jobs int) (r bench.PhaseBreakdownResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("profiling failed: %v", rec)
		}
	}()
	return bench.RunPhaseBreakdowns(labels, ops, jobs), nil
}
