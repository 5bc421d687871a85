package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"armvirt/internal/core"
	"armvirt/internal/runlog"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// handleTimeseries runs (or fetches from cache) one experiment under a
// telemetry collector and serves the merged per-PCPU/per-VM time series.
// Like the report endpoint, the payload is cached under the study hash:
// the sampler rides the deterministic event clock, so the series bytes
// are a pure function of (experiment, study hash, format).
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := core.ByID(id)
	if e == nil {
		http.Error(w, fmt.Sprintf("unknown experiment %q (GET /v1/experiments for the list)", id),
			http.StatusNotFound)
		return
	}
	format, ok := pickFormat(w, r, "json", "csv")
	if !ok {
		return
	}
	tr := runlog.TraceFrom(r.Context())
	tr.SetTarget(id+"/timeseries", format)
	key := fmt.Sprintf("ts\x00%s\x00%s\x00%s", e.ID, s.hash, format)
	if s.clusterForward(w, r, tr, key) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	sp := tr.Start("cache")
	val, outcome, err := s.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		return s.adm.Do(ctx, func() ([]byte, error) {
			return s.renderTimeseries(tr, *e, format)
		})
	})
	sp.End()
	tr.SetOutcome(outcome.String())
	if err != nil {
		tr.SetError(err)
		s.writeRunError(w, err)
		return
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	}
	s.writeCached(w, val, outcome)
}

// renderTimeseries executes one experiment with a telemetry collector
// bound, snapshots the canonical (content-sorted) series, and renders
// them. The engine-stats collection and stage spans mirror
// renderExperiment; the telemetry volume feeds the /metrics counters.
func (s *Server) renderTimeseries(tr *runlog.Trace, e core.Experiment, format string) ([]byte, error) {
	sp := tr.Start("engine")
	var rep core.Report
	var col *sim.StatsCollector
	tcol := telemetry.Collect(0, func() {
		col = sim.CollectStats(func() { rep = s.runOne(e) })
	})
	sp.End()
	tr.SetEngineStats(col.PerEngine())
	if rep.Err != nil {
		return nil, rep.Err
	}
	sp = tr.Start("render")
	defer sp.End()
	series := tcol.SortedSeries()
	var samples int64
	for _, sm := range tcol.Samplers() {
		samples += sm.Samples()
	}
	s.met.AddTelemetry(len(series), samples)
	var buf bytes.Buffer
	var err error
	if format == "csv" {
		err = telemetry.WriteCSV(&buf, series)
	} else {
		err = telemetry.WriteJSON(&buf, series)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
