// Command armvirt-report runs the complete measurement study — every
// table, figure, in-text result, projection, extension, and model
// validation — and prints the paper-vs-measured report. Experiments run on
// a worker pool (-j) but are always reported in registry order, so the
// output is byte-identical at any parallelism. With -md it emits the
// EXPERIMENTS.md body; with -json a machine-readable report; with -only it
// runs a single experiment by ID.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"armvirt/internal/bench"
	"armvirt/internal/cliutil"
	"armvirt/internal/core"
)

func main() {
	md := flag.Bool("md", false, "emit Markdown (the EXPERIMENTS.md body)")
	asJSON := flag.Bool("json", false, "emit a machine-readable JSON report")
	jobs := flag.Int("j", runtime.NumCPU(), "number of experiments to run in parallel")
	only := flag.String("only", "", "run a single experiment by ID (T2, T3, T5, F4, X1, F5, E1, E2, V1, R1, PD1)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()
	cliutil.CheckJobs(*jobs)

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-4s %-14s %s\n", e.ID, e.Kind, e.Title)
		}
		return
	}
	if *only != "" {
		e := core.ByID(*only)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *only)
			os.Exit(2)
		}
		emit([]core.Report{core.RunOne(*e)}, *md, *asJSON)
		return
	}
	emit(core.RunAll(context.Background(), *jobs), *md, *asJSON)
}

// emit renders the reports in order. A failed experiment is reported on
// stderr and skipped (its identity still appears in JSON output); any
// failure makes the process exit non-zero after the full report prints.
func emit(reports []core.Report, md, asJSON bool) {
	failed := false
	if asJSON {
		for _, r := range reports {
			if r.Err != nil {
				failed = true
			}
		}
		if err := bench.WriteJSON(os.Stdout, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	for _, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "armvirt-report: %v\n", r.Err)
			failed = true
			continue
		}
		body := r.Result.Render()
		if md {
			fmt.Printf("## %s\n\n```text\n%s```\n\n", r.Title, body)
		} else {
			fmt.Println(strings.Repeat("=", 100))
			fmt.Println(r.Title)
			fmt.Println(strings.Repeat("=", 100))
			fmt.Println(body)
		}
	}
	if failed {
		os.Exit(1)
	}
}
