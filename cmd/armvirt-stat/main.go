// Command armvirt-stat runs one workload with the observability recorder
// attached and reports the run the way `perf kvm stat` / xentrace would: a
// kvm_stat-style exit-reason and counter table, and optionally a Chrome
// trace-event timeline (chrome://tracing / Perfetto):
//
//	armvirt-stat -platform "KVM ARM" -workload tcp_rr
//	armvirt-stat -platform "Xen ARM" -workload tcp_rr -trace-out /tmp/t.json
//
// Runs are deterministic: the same platform + workload always produces the
// same event stream, byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"armvirt/internal/bench"
	"armvirt/internal/blockdev"
	"armvirt/internal/cliutil"
	"armvirt/internal/hyp"
	"armvirt/internal/obs"
	"armvirt/internal/telemetry"
	"armvirt/internal/workload"
)

var workloads = []string{"tcp_rr", "tick", "oversub", "faultstorm", "disk"}

// runWorkload executes one workload and returns its one-line result.
func runWorkload(h hyp.Hypervisor, name string) string {
	switch name {
	case "tcp_rr":
		r := workload.TCPRRVirt(h, workload.DefaultParams())
		return r.String()
	case "tick":
		r := workload.TickSim(h, 10, 100)
		return fmt.Sprintf("tick overhead: %.4fx (10ms compute at 100Hz)", r.Overhead)
	case "oversub":
		r := workload.Oversubscribe(h, 4, 1000, 100)
		return r.String()
	case "faultstorm":
		r := workload.FaultStorm(h, 256)
		return fmt.Sprintf("fault storm: cold %d cycles/fault, warm %d cycles/touch",
			int64(r.ColdPerFault), int64(r.WarmPerTouch))
	case "disk":
		m := h.Machine()
		disk := blockdev.NewDisk(m.Eng, "ssd", blockdev.SSDSpec(), m.Cost.FreqMHz)
		r := blockdev.RunVirt(h, disk, blockdev.DefaultBenchConfig())
		return r.String()
	}
	panic("unknown workload " + name)
}

func main() {
	platformFlag := flag.String("platform", "KVM ARM", "platform ("+cliutil.Quoted(bench.PlatformNames())+")")
	workloadFlag := flag.String("workload", "tcp_rr", "workload ("+cliutil.Quoted(workloads)+")")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
	ringCap := flag.Int("ring", 0, "per-CPU event ring capacity (0 = default)")
	intervalUs := flag.Float64("interval-us", 10, "telemetry sampling bucket, simulated microseconds (counter tracks in -trace-out)")
	flag.Parse()

	if *intervalUs <= 0 {
		fmt.Fprintln(os.Stderr, "-interval-us must be positive")
		os.Exit(2)
	}

	cliutil.CheckChoice("platform", *platformFlag, bench.PlatformNames())
	cliutil.CheckChoice("workload", *workloadFlag, workloads)

	// The telemetry collector must be bound before the factory builds the
	// machine: hw.New picks its sampler up from the goroutine binding.
	tcol := telemetry.NewCollector(*intervalUs)
	tdetach := tcol.Bind()
	h := bench.Factories()[*platformFlag]()
	m := h.Machine()
	rec := obs.NewRecorder(m.NCPU(), *ringCap)
	m.SetRecorder(rec)

	var result string
	err := cliutil.Recover("workload "+*workloadFlag+" failed", func() {
		result = runWorkload(h, *workloadFlag)
	})
	tdetach()
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-stat: %v\n", err)
		os.Exit(1)
	}
	sum := obs.Summarize(rec)

	fmt.Printf("%s · %s\n", *platformFlag, *workloadFlag)
	fmt.Printf("%s\n", result)
	fmt.Printf("%s\n\n", sum.Headline())
	fmt.Print(sum.Render())

	if *traceOut != "" {
		if err := cliutil.WriteFile(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTraceWithCounters(w, rec, m.Cost.FreqMHz, tcol.SortedSeries())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "armvirt-stat: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d events to %s\n", rec.Total(), *traceOut)
	}
}
