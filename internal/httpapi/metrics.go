// Prometheus-style scrape surface and trace export, next to the servlet
// endpoints:
//
//	GET /metrics            — cluster statistics in Prometheus text
//	                          exposition format (counters, gauges, and the
//	                          per-stage latency histograms)
//	GET /site/{id}/traces   — one site's retained trace fragments (JSON)
//
// and, when profiling is enabled (EnableProfiling / rainbow-home -pprof),
// net/http/pprof under /debug/pprof/ and expvar under /debug/vars.
package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// handleMetrics serves GET /metrics: the scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	monitor.WriteMetrics(w, inst.Report())
}

// handleTraces serves GET /site/{id}/traces: the site's retained trace
// fragments, oldest first. Query parameters narrow the result:
//
//	tx      — only fragments for this transaction ID ("S1:42")
//	min_ms  — only fragments at least this many milliseconds long
//	limit   — keep only the newest N fragments after filtering
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	id := model.SiteID(r.PathValue("id"))
	st, ok := inst.Site(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown site %q", id))
		return
	}
	traces := st.Traces()

	q := r.URL.Query()
	if tx := q.Get("tx"); tx != "" {
		traces = filterTraces(traces, func(t trace.Trace) bool { return t.Tx.String() == tx })
	}
	if raw := q.Get("min_ms"); raw != "" {
		minMS, err := strconv.ParseFloat(raw, 64)
		if err != nil || minMS < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", raw))
			return
		}
		minDur := time.Duration(minMS * float64(time.Millisecond))
		traces = filterTraces(traces, func(t trace.Trace) bool { return t.Duration() >= minDur })
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", raw))
			return
		}
		if n < len(traces) {
			// Fragments are oldest-first; keep the newest n.
			traces = traces[len(traces)-n:]
		}
	}

	pol := st.Tracer().Policy()
	writeJSON(w, http.StatusOK, map[string]any{
		"site":        id,
		"sample_rate": pol.SampleRate,
		"ring":        pol.Ring,
		"traces":      traces,
		"count":       len(traces),
	})
}

// filterTraces keeps the fragments matching keep, preserving order.
func filterTraces(ts []trace.Trace, keep func(trace.Trace) bool) []trace.Trace {
	out := ts[:0:0]
	for _, t := range ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}
