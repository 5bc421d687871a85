package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"armvirt/internal/runlog"
)

// getRun fetches a path and returns status, body, and the X-Armvirt-Run
// header naming the request's own ledger entry.
func getRun(t *testing.T, ts *httptest.Server, path string) (int, []byte, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Armvirt-Run")
}

// TestRunLedgerEndpoints drives a real experiment request through the
// server and checks the whole run-ledger surface: the X-Armvirt-Run
// header, the /v1/runs listing and its filters, the full entry at
// /v1/runs/{id}, and the Chrome trace at /v1/runs/{id}/trace.
func TestRunLedgerEndpoints(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, runID := getRun(t, ts, "/v1/experiments/T2?format=json")
	if status != http.StatusOK {
		t.Fatalf("experiment run: status=%d", status)
	}
	if runID == "" {
		t.Fatal("response missing X-Armvirt-Run header")
	}

	// The listing names the run; the experiment filter keeps it, a bogus
	// one drops it.
	status, body, _ := getRun(t, ts, "/v1/runs?endpoint=experiment")
	if status != http.StatusOK || !strings.Contains(string(body), runID) {
		t.Fatalf("/v1/runs: status=%d, body missing run %s:\n%s", status, runID, body)
	}
	_, body, _ = getRun(t, ts, "/v1/runs?experiment=T2&status=200")
	if !strings.Contains(string(body), runID) {
		t.Fatalf("experiment filter dropped run %s:\n%s", runID, body)
	}
	_, body, _ = getRun(t, ts, "/v1/runs?experiment=no-such-experiment")
	if strings.Contains(string(body), runID) {
		t.Error("bogus experiment filter still lists the run")
	}
	if st, _, _ := getRun(t, ts, "/v1/runs?since=not-a-duration"); st != http.StatusBadRequest {
		t.Errorf("bad since: status=%d, want 400", st)
	}

	// JSON listing round-trips as runlog entries.
	_, body, _ = getRun(t, ts, "/v1/runs?format=json&experiment=T2")
	var listed []*runlog.Entry
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatalf("listing JSON: %v", err)
	}
	if len(listed) != 1 || listed[0].ID != runID {
		t.Fatalf("listing = %+v, want exactly run %s", listed, runID)
	}

	// The full entry carries identity, outcome, stage spans that fit
	// inside the request total, and the deterministic engine snapshot.
	status, body, _ = getRun(t, ts, "/v1/runs/"+runID)
	if status != http.StatusOK {
		t.Fatalf("/v1/runs/%s: status=%d", runID, status)
	}
	var e runlog.Entry
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("entry JSON: %v", err)
	}
	if e.ID != runID || e.Endpoint != "experiment" || e.Target != "T2" ||
		e.Format != "json" || e.Status != 200 || e.Outcome != "miss" {
		t.Fatalf("entry identity wrong: %+v", e)
	}
	if e.StudyHash != s.StudyHash() {
		t.Errorf("entry study hash %q != server %q", e.StudyHash, s.StudyHash())
	}
	names, totals := e.StageTotals()
	for _, want := range []string{"cache", "admission-wait", "engine", "render"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("entry missing %q span (have %v)", want, names)
		}
	}
	var top int64
	for _, sp := range e.Spans {
		top += sp.DurUS
	}
	if top > e.TotalUS {
		t.Errorf("top-level span durations %dus exceed request total %dus", top, e.TotalUS)
	}
	if totals["engine"] > e.TotalUS {
		t.Errorf("engine stage %dus exceeds request total %dus", totals["engine"], e.TotalUS)
	}
	if e.Engine == nil || e.Engine.Engines == 0 || e.Engine.Events == 0 || e.Engine.Cycles == 0 {
		t.Fatalf("entry engine stats missing or empty: %+v", e.Engine)
	}

	// The Chrome trace parses as an event array with both timebases.
	status, body, _ = getRun(t, ts, "/v1/runs/"+runID+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace: status=%d", status)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, ev := range events {
		pids[ev["pid"].(float64)] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("trace missing a timebase track group: pids=%v", pids)
	}

	// Unknown runs 404 on both entry and trace routes.
	if st, _, _ := getRun(t, ts, "/v1/runs/nope"); st != http.StatusNotFound {
		t.Errorf("unknown run: status=%d, want 404", st)
	}
	if st, _, _ := getRun(t, ts, "/v1/runs/nope/trace"); st != http.StatusNotFound {
		t.Errorf("unknown trace: status=%d, want 404", st)
	}
}

// TestRunLedgerCacheHitHasNoEngine checks span semantics across the
// cache: a hit's trace has the cache lookup but no engine stage and no
// engine stats, while the leader's entry keeps both.
func TestRunLedgerCacheHitHasNoEngine(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, missID := getRun(t, ts, "/v1/experiments/T2")
	_, _, hitID := getRun(t, ts, "/v1/experiments/T2")

	miss, hit := s.lg.Get(missID), s.lg.Get(hitID)
	if miss == nil || hit == nil {
		t.Fatalf("ledger lost entries: miss=%v hit=%v", miss, hit)
	}
	if miss.Outcome != "miss" || hit.Outcome != "hit" {
		t.Fatalf("outcomes = %q, %q; want miss, hit", miss.Outcome, hit.Outcome)
	}
	if miss.Engine == nil {
		t.Error("miss entry lost its engine stats")
	}
	if hit.Engine != nil {
		t.Errorf("cache hit carries engine stats: %+v", hit.Engine)
	}
	names, _ := hit.StageTotals()
	for _, n := range names {
		if n == "engine" {
			t.Error("cache hit carries an engine span")
		}
	}
}

// TestMetricsIncludeStagesAndLedger checks the /metrics additions: the
// per-stage latency summary, the in-flight cache gauge, and the run-log
// family appear after a real run.
func TestMetricsIncludeStagesAndLedger(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if st, _, _ := getRun(t, ts, "/v1/experiments/T2"); st != http.StatusOK {
		t.Fatalf("experiment run: status=%d", st)
	}
	_, body, _ := getRun(t, ts, "/metrics")
	out := string(body)
	for _, want := range []string{
		`armvirt_stage_latency_us{stage="engine",quantile="0.5"}`,
		`armvirt_stage_latency_us_count{stage="cache"} 1`,
		"armvirt_cache_inflight 0",
		"armvirt_runlog_appended_total",
		"armvirt_runlog_entries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLedgerEntryPrecedesResponse pins the ledger's visibility contract:
// by the time any byte of a response reaches the client, the request's
// entry is in the ledger. The handler writes a body far larger than the
// HTTP write buffer and then lingers; were the body passed straight
// through, the client would read it while the handler is still running
// and find no entry.
func TestLedgerEntryPrecedesResponse(t *testing.T) {
	s := New(Config{})
	release := make(chan struct{})
	ts := httptest.NewServer(s.instrument("test", func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 256<<10))
		select {
		case <-release:
		case <-time.After(200 * time.Millisecond):
		}
	}))
	defer ts.Close()
	defer close(release)

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get("X-Armvirt-Run")
	if s.lg.Get(id) == nil {
		t.Fatalf("response bytes visible before run %q reached the ledger", id)
	}
}
