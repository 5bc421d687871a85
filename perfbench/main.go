// Command perfbench is the repository's benchmark: it runs one named
// workload against the public functions of the armvirt packages, checks
// every output against pinned digests, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON line. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark process: its inputs, its tracer, and what it has
// measured so far.
type run struct {
	seed    int64
	nproc   int
	pins    pins
	tr      *tracer // nil on untraced runs
	primary bool    // measuring the named workload, not a filler group

	attempted, failed int64
	metrics           map[string]metric
	notes             map[string]any
}

// e2e records an end-to-end metric of the named workload. A traced run
// reports it as trace.<name>, beside the per-layer metrics, so tracing
// overhead shows against the untraced runs.
func (r *run) e2e(name string, v float64, unit string) {
	if !r.primary {
		return
	}
	if r.tr != nil {
		name = "trace." + name
	}
	r.metrics[name] = metric{v, unit}
}

// layer records a per-layer metric; untraced runs drop them.
func (r *run) layer(name string, v float64, unit string) {
	if r.tr != nil {
		r.metrics[name] = metric{v, unit}
	}
}

// traced reports whether per-layer measurements should be taken.
func (r *run) traced() bool { return r.tr != nil }

// count records one attempted operation and whether it failed.
func (r *run) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// workloadFunc runs a workload for the given measuring time. Filler runs (primary false)
// only need the per-layer metrics and get a shorter time.
type workloadFunc func(r *run, dur time.Duration) error

var workloads = map[string]workloadFunc{
	"study":       runStudy,
	"fleet":       runFleet,
	"serve-hit":   runServeHit,
	"serve-churn": runServeChurn,
}

// fillerTime is how long a traced run spends on each other workload to
// complete the per-layer metric set.
const fillerTime = 3 * time.Second

func main() {
	name := flag.String("workload", "", "workload: study, fleet, serve-hit or serve-churn")
	seed := flag.Int64("seed", 1, "input seed (arrival times and key order of the serve workloads)")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	pin := flag.String("pin", "", "write fresh output digests to this file and exit")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, pin string) error {
	if pin != "" {
		return writePins(pin)
	}
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (study, fleet, serve-hit, serve-churn)", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	r := &run{seed: seed, nproc: runtime.NumCPU(), pins: p, primary: true,
		metrics: make(map[string]metric), notes: make(map[string]any)}
	if trace == 1 {
		r.tr = newTracer()
	}
	if err := wl(r, time.Duration(seconds)*time.Second); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := paperErr(r); err != nil {
		return err
	}
	r.e2e("peak_rss_mb", peakRSSMB(), "MB")
	if r.traced() {
		if err := completeLayers(r, name); err != nil {
			return err
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := r.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.notes["spans"] = path
	}
	failRatio := float64(r.failed) / float64(max(r.attempted, 1))
	r.notes["fail_ratio"] = failRatio
	r.layer("fail_ratio", failRatio, "ratio")
	info := map[string]any{"host": hostRecord(), "workload": name, "seed": seed,
		"seconds": seconds, "trace": trace, "notes": r.notes}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
}

// completeLayers gives a traced run every per-layer metric: the probes
// that call single layers directly, then a short run of each workload
// other than the named one for the layer metrics only it produces.
func completeLayers(r *run, name string) error {
	if err := probeLayers(r); err != nil {
		return err
	}
	r.primary = false
	others := make([]string, 0, len(workloads))
	for other := range workloads {
		if other != name {
			others = append(others, other)
		}
	}
	sort.Strings(others)
	for _, other := range others {
		if err := workloads[other](r, fillerTime); err != nil {
			return fmt.Errorf("%s (per-layer filler): %w", other, err)
		}
	}
	return nil
}

// hostRecord describes the machine the numbers came from. A parallel
// speedup means nothing on a host with fewer cores than workers.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects the garbage earlier operations left, so that none of
// its collection is charged to the next timed operation and every one
// starts from the same heap.
func settle() { runtime.GC() }

// allocBytes returns the process's cumulative heap allocation in bytes
// and count.
func allocBytes() (bytes, count uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}
