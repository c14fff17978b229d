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
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// metricName sanitizes a stage/cause label fragment into a metric-safe form.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, s)
}

// writeMetricHeader emits the HELP/TYPE preamble once per metric family.
func writeMetricHeader(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// writeHistogram renders one monitor.Histogram as a Prometheus histogram
// family member with the given label set (no trailing comma), using the
// log2-bucket upper edges in seconds.
func writeHistogram(w io.Writer, name, labels string, h monitor.Histogram) {
	lp := ""
	if labels != "" {
		lp = labels + ","
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	var cum uint64
	for b := 0; b < monitor.NumBuckets; b++ {
		cum += h.Buckets[b]
		// Skip runs of empty leading/intermediate buckets only when nothing
		// has accumulated yet — cumulative counts must stay monotone.
		if h.Buckets[b] == 0 && cum == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, lp,
			float64(monitor.BucketUpperNS(b))/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lp, h.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, float64(h.SumNS)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count)
}

// WriteMetrics renders the report in Prometheus text exposition format
// (version 0.0.4). Exported so operators can reuse the renderer outside the
// HTTP server (the bench's scrape smoke test does).
func WriteMetrics(w io.Writer, rep monitor.Report) {
	counter := func(name, help string, val func(monitor.SiteStats) uint64) {
		writeMetricHeader(w, name, "counter", help)
		for _, s := range rep.Sites {
			fmt.Fprintf(w, "%s{site=%q} %d\n", name, string(s.Site), val(s))
		}
	}
	gauge := func(name, help string, val func(monitor.SiteStats) float64) {
		writeMetricHeader(w, name, "gauge", help)
		for _, s := range rep.Sites {
			fmt.Fprintf(w, "%s{site=%q} %g\n", name, string(s.Site), val(s))
		}
	}

	counter("rainbow_tx_began_total", "Transactions admitted at this home site.",
		func(s monitor.SiteStats) uint64 { return s.Began })
	counter("rainbow_tx_committed_total", "Transactions committed.",
		func(s monitor.SiteStats) uint64 { return s.Committed })
	counter("rainbow_tx_aborted_total", "Transactions aborted.",
		func(s monitor.SiteStats) uint64 { return s.Aborted })
	counter("rainbow_tx_restarts_total", "Workload-level restarts after CC rejections.",
		func(s monitor.SiteStats) uint64 { return s.Restarts })
	counter("rainbow_round_trips_total", "Request/response exchanges the site initiated.",
		func(s monitor.SiteStats) uint64 { return s.RoundTrips })
	gauge("rainbow_window_seconds", "Observation window covered by the site's counters.",
		func(s monitor.SiteStats) float64 { return float64(s.WindowNS) / 1e9 })

	writeMetricHeader(w, "rainbow_tx_aborts_by_cause_total", "counter", "Aborts keyed by cause.")
	for _, s := range rep.Sites {
		causes := make([]string, 0, len(s.AbortsByCause))
		for k := range s.AbortsByCause {
			causes = append(causes, k)
		}
		sort.Strings(causes)
		for _, k := range causes {
			fmt.Fprintf(w, "rainbow_tx_aborts_by_cause_total{site=%q,cause=%q} %d\n",
				string(s.Site), metricName(k), s.AbortsByCause[k])
		}
	}

	gauge("rainbow_orphans", "In-doubt (blocked) transactions right now.",
		func(s monitor.SiteStats) float64 { return float64(s.Orphans) })
	counter("rainbow_wal_flushes_total", "WAL force-write cycles.",
		func(s monitor.SiteStats) uint64 { return s.WALFlushes })
	counter("rainbow_wal_records_total", "WAL records forced.",
		func(s monitor.SiteStats) uint64 { return s.WALRecords })
	gauge("rainbow_wal_retained_bytes", "Retained WAL volume.",
		func(s monitor.SiteStats) float64 { return float64(s.WALBytes) })
	counter("rainbow_checkpoints_total", "Completed checkpoints.",
		func(s monitor.SiteStats) uint64 { return s.Checkpoints })
	gauge("rainbow_recovery_seconds", "Duration of the site's last restart replay.",
		func(s monitor.SiteStats) float64 { return float64(s.RecoveryNS) / 1e9 })
	gauge("rainbow_catalog_epoch", "Catalog epoch the site currently runs.",
		func(s monitor.SiteStats) float64 { return float64(s.Epoch) })
	gauge("rainbow_shards", "Data-plane shard count (storage shards and lock stripes).",
		func(s monitor.SiteStats) float64 { return float64(s.Shards) })
	gauge("rainbow_store_shards", "Sharded-store shard count reporting occupancy.",
		func(s monitor.SiteStats) float64 { return float64(len(s.StoreShards)) })

	gauge("rainbow_pipeline_depth", "Operations queued across shard sequencers.",
		func(s monitor.SiteStats) float64 { return float64(s.PipeDepth) })
	counter("rainbow_pipeline_submitted_total", "Operations admitted through the pipeline.",
		func(s monitor.SiteStats) uint64 { return s.PipeSubmitted })
	counter("rainbow_pipeline_batches_total", "Pipeline batches drained.",
		func(s monitor.SiteStats) uint64 { return s.PipeBatches })
	counter("rainbow_pipeline_spills_total", "Contended operations spilled to the blocking path.",
		func(s monitor.SiteStats) uint64 { return s.PipeSpills })

	counter("rainbow_cc_adds_total", "Blind-add intents admitted.",
		func(s monitor.SiteStats) uint64 { return s.CCAdds })
	counter("rainbow_cc_split_adds_total", "Adds admitted lock-free through a split slot.",
		func(s monitor.SiteStats) uint64 { return s.CCSplitAdds })
	counter("rainbow_cc_splits_total", "Hot items moved into split execution.",
		func(s monitor.SiteStats) uint64 { return s.CCSplits })
	counter("rainbow_cc_drains_total", "Split items drained back to locking.",
		func(s monitor.SiteStats) uint64 { return s.CCDrains })
	gauge("rainbow_cc_split_items", "Items in split execution right now.",
		func(s monitor.SiteStats) float64 { return float64(s.SplitItems) })
	counter("rainbow_add_waves_total", "Add-only waves shipped with every leg at once, without waiting (2PC).",
		func(s monitor.SiteStats) uint64 { return s.AddWaves })
	counter("rainbow_add_wave_reruns_total", "Add-only waves a no-wait leg refused, rerun as ordered waves.",
		func(s monitor.SiteStats) uint64 { return s.AddWaveReruns })
	counter("rainbow_voted_legs_total", "Copy-operation legs that voted with their reply: add-only waves' remote legs and read-write waves' last legs (2PC).",
		func(s monitor.SiteStats) uint64 { return s.VotedLegs })
	counter("rainbow_home_forces_total", "Commits whose home forced its prepared record with the decision, in one force (2PC).",
		func(s monitor.SiteStats) uint64 { return s.HomeForces })
	counter("rainbow_vote_lost_reruns_total", "One-shot programs rerun because a voting leg got no reply.",
		func(s monitor.SiteStats) uint64 { return s.VoteLostReruns })
	counter("rainbow_home_first_waves_total", "Waves that ran the home's leg first, because it would sort last, and shipped every remote leg after it without waiting (2PC).",
		func(s monitor.SiteStats) uint64 { return s.HomeFirstWaves })
	counter("rainbow_home_first_reruns_total", "Home-first waves a no-wait leg refused, rerun as ordered waves.",
		func(s monitor.SiteStats) uint64 { return s.HomeFirstReruns })
	counter("rainbow_releases_abandoned_total", "Release-retry loops that gave up and left cleanup to the janitor.",
		func(s monitor.SiteStats) uint64 { return s.ReleasesAbandoned })
	counter("rainbow_commit_tails_unacked_total", "Commit tails that ended without every ack; their decisions wait in the table for a decision request.",
		func(s monitor.SiteStats) uint64 { return s.TailsUnacked })

	counter("rainbow_net_sent_envelopes_total", "Envelopes handed to the coalescing sender.",
		func(s monitor.SiteStats) uint64 { return s.NetSentEnvelopes })
	counter("rainbow_net_send_flushes_total", "Transport flush cycles (send syscalls).",
		func(s monitor.SiteStats) uint64 { return s.NetSendFlushes })
	counter("rainbow_net_recv_envelopes_total", "Envelopes decoded from incoming frames.",
		func(s monitor.SiteStats) uint64 { return s.NetRecvEnvelopes })
	counter("rainbow_net_recv_frames_total", "Multi-envelope frames decoded.",
		func(s monitor.SiteStats) uint64 { return s.NetRecvFrames })
	counter("rainbow_net_send_sheds_total", "Sends dropped under backpressure.",
		func(s monitor.SiteStats) uint64 { return s.NetSendSheds })
	counter("rainbow_net_sent_bytes_total", "Bytes written by the coalescing sender.",
		func(s monitor.SiteStats) uint64 { return s.NetSentBytes })

	counter("rainbow_trace_sampled_total", "Transactions sampled for tracing.",
		func(s monitor.SiteStats) uint64 { return s.TraceSampled })
	counter("rainbow_trace_fragments_total", "Completed trace fragments retained.",
		func(s monitor.SiteStats) uint64 { return s.TraceFragments })
	counter("rainbow_trace_evicted_total", "Trace fragments evicted from the bounded ring.",
		func(s monitor.SiteStats) uint64 { return s.TraceEvicted })
	counter("rainbow_trace_slow_total", "Root traces over the slow threshold.",
		func(s monitor.SiteStats) uint64 { return s.TraceSlow })

	writeMetricHeader(w, "rainbow_tx_latency_seconds", "histogram",
		"End-to-end transaction response time.")
	for _, s := range rep.Sites {
		writeHistogram(w, "rainbow_tx_latency_seconds",
			fmt.Sprintf("site=%q", string(s.Site)), s.Latency)
	}

	writeMetricHeader(w, "rainbow_stage_latency_seconds", "histogram",
		"Per-stage latency (queue, admit, lock_wait, wal_fsync, prepare, ...).")
	for _, s := range rep.Sites {
		stages := make([]string, 0, len(s.Stages))
		for name := range s.Stages {
			stages = append(stages, name)
		}
		sort.Strings(stages)
		for _, name := range stages {
			writeHistogram(w, "rainbow_stage_latency_seconds",
				fmt.Sprintf("site=%q,stage=%q", string(s.Site), metricName(name)), s.Stages[name])
		}
	}

	writeMetricHeader(w, "rainbow_net_messages_total", "counter",
		"Network-level message counters (whole instance).")
	fmt.Fprintf(w, "rainbow_net_messages_total{kind=\"sent\"} %d\n", rep.Net.Sent)
	fmt.Fprintf(w, "rainbow_net_messages_total{kind=\"delivered\"} %d\n", rep.Net.Delivered)
	fmt.Fprintf(w, "rainbow_net_messages_total{kind=\"dropped\"} %d\n", rep.Net.Dropped)
	writeMetricHeader(w, "rainbow_net_bytes_total", "counter", "Network payload bytes.")
	fmt.Fprintf(w, "rainbow_net_bytes_total %d\n", rep.Net.Bytes)
}

// handleMetrics serves GET /metrics: the scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, inst.Report())
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
