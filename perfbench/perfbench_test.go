package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"armvirt/internal/core"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailSelection(t *testing.T) {
	for _, c := range []struct {
		n         int
		value     float64
		pct       float64
		wantAbove int
	}{
		{n: 1000, value: 990, pct: 99, wantAbove: 10},
		{n: 2000, value: 1980, pct: 99, wantAbove: 20},
		{n: 100, value: 90, pct: 90, wantAbove: 10},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, wantAbove: 10},
		{n: 15, value: 8, pct: 50}, // a rank leaving 10 above is below the median
	} {
		v, pct := tail(seq(c.n))
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v (p%.2f), want %v (p%.2f)", c.n, v, pct, c.value, c.pct)
		}
		if c.wantAbove > 0 && c.n-int(v) != c.wantAbove {
			t.Errorf("n=%d: %d samples above the tail, want %d", c.n, c.n-int(v), c.wantAbove)
		}
	}
	if v, _ := tail(append(seq(999), math.Inf(1))); v != 990 {
		t.Errorf("a failure must sort last and count beyond the tail; tail = %v", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestWindowedTail(t *testing.T) {
	wantV, wantPct := tail(seq(1999))
	if v, pct, k := windowedTail(seq(1999)); k != 1 || v != wantV || pct != wantPct {
		t.Errorf("below two windows: %v (p%.2f) over %d windows, want tail() = %v (p%.2f)", v, pct, k, wantV, wantPct)
	}
	// 20000 samples of 1, with a stall of 200 slow ones in the second
	// window: one window's tail is slow, the median of ten is not.
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 1
		if i >= 2000 && i < 2200 {
			xs[i] = 50
		}
	}
	if v, pct, k := windowedTail(xs); k != 10 || v != 1 || pct != 99 {
		t.Errorf("windowedTail = %v (p%v) over %d windows, want 1 (p99) over 10", v, pct, k)
	}
	if v, _ := tail(xs); v != 1 {
		t.Fatalf("the stall is 1%% of samples; tail = %v", v)
	}
	for i := 2200; i < 2400; i++ {
		xs[i] = 50
	}
	if v, _ := tail(xs); v != 50 {
		t.Fatalf("a 2%% stall must set the plain tail; tail = %v", v)
	}
	if v, _, _ := windowedTail(xs); v != 1 {
		t.Errorf("a 2%% stall in one window moved the windowed tail to %v", v)
	}
}

func TestPaperErrPct(t *testing.T) {
	a := map[string]string{"platform": "KVM ARM", "benchmark": "Hypercall"}
	b := map[string]string{"platform": "Xen ARM", "benchmark": "Hypercall"}
	rows := []row{
		{Metric: "cycles", Labels: a, Value: 110},
		{Metric: "paper_cycles", Labels: a, Value: 100}, // 10%
		{Metric: "cycles", Labels: b, Value: 70},
		{Metric: "paper_cycles", Labels: b, Value: 100},                                   // 30%
		{Metric: "paper_cycles", Labels: map[string]string{"platform": "none"}, Value: 5}, // unmatched
		{Metric: "overhead", Labels: a, Value: 2},
		{Metric: "paper_overhead", Labels: a, Value: 0}, // no relative error
		{Metric: "paper_", Value: 1},
	}
	pct, pairs := paperErrPct(rows)
	if pairs != 2 || math.Abs(pct-20) > 1e-9 {
		t.Fatalf("paperErrPct = %v over %d pairs, want 20 over 2", pct, pairs)
	}
	if _, pairs := paperErrPct(rows[4:]); pairs != 0 {
		t.Fatalf("no complete pair, got %d", pairs)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	rungs := []rung{{rate: 1000, dur: 500 * time.Millisecond}, {rate: 4000, dur: 250 * time.Millisecond}}
	a, b := schedule(7, rungs, 42), schedule(7, rungs, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, rungs, 42)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for lo := 0; lo+42 <= len(a); lo += 42 {
		seen := make(map[int]bool)
		for _, x := range a[lo : lo+42] {
			seen[x.key] = true
		}
		if len(seen) != 42 {
			t.Fatalf("arrivals %d..%d hold %d distinct keys, want every one of 42", lo, lo+41, len(seen))
		}
	}
	counts := make([]int, len(rungs))
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d out of order", i)
		}
		if x.key < 0 || x.key >= 42 {
			t.Fatalf("arrival %d: key %d out of range", i, x.key)
		}
		lo := time.Duration(0)
		if x.rung == 1 {
			lo = rungs[0].dur
		}
		if x.at < lo || x.at >= lo+rungs[x.rung].dur {
			t.Fatalf("arrival %d at %v outside rung %d", i, x.at, x.rung)
		}
		counts[x.rung]++
	}
	for i, rg := range rungs {
		want := rg.rate * rg.dur.Seconds() // Poisson mean 500 and 1000
		if got := float64(counts[i]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rung %d: %v arrivals, want about %v", i, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},  // grandchild: only b's
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var tr *tracer
	if id := tr.start("x", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.end(0)
}

// TestCorruptBodyCountsAsFailure serves one key with a wrong body and
// checks that the output gate fails every request for it, and that the
// rung it lands in cannot count toward max_rps.
func TestCorruptBodyCountsAsFailure(t *testing.T) {
	good, bad := []byte("pinned body\n"), []byte("pinned b0dy\n")
	sum := sha256.Sum256(good)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Write(bad)
			return
		}
		w.Write(good)
	}))
	defer srv.Close()
	r := &run{nproc: 2, pins: pins{Bodies: map[string]pinnedBody{
		"T1/json": {SHA256: hex.EncodeToString(sum[:])},
		"T1/text": {SHA256: hex.EncodeToString(sum[:])},
	}}}
	env := &serveEnv{base: srv.URL, client: srv.Client()}
	keys := []string{"T1/json", "T1/text"}
	sched := []arrival{{at: 0, key: 0}, {at: time.Millisecond, key: 1}, {at: 2 * time.Millisecond, key: 0}}
	res := runLadder(r, env, []rung{{rate: 1000, dur: 5 * time.Millisecond}}, sched, keys, 0)
	if r.attempted != 3 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", r.attempted, r.failed)
	}
	if res[0].failed != 1 {
		t.Fatalf("rung failures = %d, want 1", res[0].failed)
	}
	if !math.IsInf(sorted(res[0].lat)[2], 1) {
		t.Fatalf("a failed request must read as an infinite latency; got %v", res[0].lat)
	}
	if res[0].meets(math.MaxFloat64, 2) {
		t.Fatal("a rung with a failed request counted toward max_rps")
	}
}

func TestGrowingBacklog(t *testing.T) {
	// Two connections, 1000 rps and a 10 ms limit: up to 2+10 more
	// requests waiting at the end than at the start is no growth.
	for _, c := range []struct {
		start, end int
		want       bool
	}{
		{0, 12, false},
		{0, 13, true},
		{5, 17, false},
		{8, 2300, true}, // saturated
		{50, 10, false}, // draining
	} {
		s := rungStats{rate: 1000, backlogStart: c.start, backlogEnd: c.end}
		if got := s.growing(2, 10); got != c.want {
			t.Errorf("%+v: growing = %v, want %v", c, got, c.want)
		}
	}
}

// TestPinsMatchReport checks that the pinned study and json body digests
// are those of armvirt-report's own output, and the text pins those of
// the body it prints under each title.
func TestPinsMatchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs armvirt-report")
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "armvirt-report")
	if out, err := exec.Command("go", "build", "-o", bin, "armvirt/cmd/armvirt-report").CombinedOutput(); err != nil {
		t.Fatalf("building armvirt-report: %v\n%s", err, out)
	}
	report := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("armvirt-report %v: %v", args, err)
		}
		return out
	}
	if got := digest(report("-json", "-j", "2")); got != p.Study {
		t.Errorf("study: armvirt-report -json digest %s, pinned %s", got, p.Study)
	}
	for _, e := range core.Experiments() {
		if got := digest(report("-only", e.ID, "-json")); got != p.Bodies[bodyKey(e.ID, "json")].SHA256 {
			t.Errorf("%s: armvirt-report -only -json digest %s, pinned %s", e.ID, got, p.Bodies[bodyKey(e.ID, "json")].SHA256)
		}
		// Text mode prints a ruled title block, the body, and a newline.
		text := report("-only", e.ID)
		rule := strings.Repeat("=", 100) + "\n"
		head := rule + e.Title + "\n" + rule
		if !bytes.HasPrefix(text, []byte(head)) || !bytes.HasSuffix(text, []byte("\n")) {
			t.Errorf("%s: unexpected armvirt-report text layout", e.ID)
			continue
		}
		body := text[len(head) : len(text)-1]
		if got := digest(body); got != p.Bodies[bodyKey(e.ID, "text")].SHA256 {
			t.Errorf("%s: armvirt-report -only text body digest %s, pinned %s", e.ID, got, p.Bodies[bodyKey(e.ID, "text")].SHA256)
		}
	}
}
