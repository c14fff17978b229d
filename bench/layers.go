package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	// note is printed beside the value (sample counts, caveats).
	note string
}

// statsDelta is the per-site statistics either side of the measured window.
// The counters are cumulative, so window values are differences.
type statsDelta struct{ before, after []monitor.SiteStats }

func (c *cluster) stats() []monitor.SiteStats {
	out := make([]monitor.SiteStats, len(c.sites))
	for i, st := range c.sites {
		out[i] = st.Stats()
	}
	return out
}

// sum adds one counter's window increase over all sites.
func (d statsDelta) sum(f func(monitor.SiteStats) uint64) float64 {
	var n uint64
	for i := range d.after {
		n += f(d.after[i]) - f(d.before[i])
	}
	return float64(n)
}

// net reads one transport counter's window increase. Every site reports the
// totals of the one tcpnet.Net they share, so one site's view is the whole.
func (d statsDelta) net(f func(monitor.SiteStats) uint64) float64 {
	return float64(f(d.after[0]) - f(d.before[0]))
}

// stage sums one stage histogram's window increase over all sites.
func (d statsDelta) stage(name string) monitor.Histogram {
	var h monitor.Histogram
	for i := range d.after {
		a, b := d.after[i].Stages[name], d.before[i].Stages[name]
		h.Count += a.Count - b.Count
		h.SumNS += a.SumNS - b.SumNS
		h.MaxNS = max(h.MaxNS, a.MaxNS)
		for k := range h.Buckets {
			h.Buckets[k] += a.Buckets[k] - b.Buckets[k]
		}
	}
	return h
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanMS(h monitor.Histogram) float64 { return ratio(float64(h.SumNS)/1e6, float64(h.Count)) }

// ---- spans ----

// span is one interval of one sampled transaction, as written to the trace
// file. Harness spans ("client.execute", "wal.append") are measured by the
// benchmark at the program's seams; the others are the sites' own sampled
// stage spans, collated across sites.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: no parent
	Trace   string  `json:"trace"`
	Tx      string  `json:"tx"`
	Site    string  `json:"site"`
	Name    string  `json:"name"`
	Note    string  `json:"note,omitempty"`
	StartUS float64 `json:"start_us"` // since the start of the window
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`

	start, end time.Time
	// frag tells the fragments of one trace apart; -1 marks harness spans.
	frag int
	// structural spans partition the home site's blocking path (execute ⊃
	// exec ⊃ op…, prepare, decide); spans of other sites nest under them.
	structural bool
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracedTx is one sampled transaction's span tree.
type tracedTx struct {
	spans []span // spans[0] is client.execute
}

// buildTraces turns the window's sampled fragments, the harness Execute
// spans and the WAL probe spans into one span tree per sampled transaction.
func buildTraces(window phase, fragments [][]trace.Trace, walSpans []walSpan) []tracedTx {
	execByTx := make(map[model.TxID]execSpan, len(window.spans))
	for _, s := range window.spans {
		execByTx[s.tx] = s
	}
	walByTx := make(map[model.TxID][]walSpan)
	for _, s := range walSpans {
		walByTx[s.tx] = append(walByTx[s.tx], s)
	}

	var out []tracedTx
	for id, group := range trace.Collate(fragments...) {
		root := group[0]
		exec, ok := execByTx[root.Tx]
		if !root.Root || !ok {
			continue // warm-up or epilogue transaction, or its root was evicted
		}
		traceID, tx := fmt.Sprintf("%016x", uint64(id)), root.Tx.String()
		t := tracedTx{spans: []span{{
			Trace: traceID, Tx: tx, Site: "client", Name: "client.execute",
			start: exec.start, end: exec.end, frag: -1, structural: true,
		}}}
		for f, fr := range group {
			for _, sp := range fr.Spans {
				structural := fr.Root && (sp.Stage == trace.StageExec || sp.Stage == trace.StageOp ||
					sp.Stage == trace.StagePrepare || sp.Stage == trace.StageDecide)
				t.spans = append(t.spans, span{
					Trace: traceID, Tx: tx, Site: string(fr.Site), Name: sp.Name, Note: sp.Note,
					start: sp.Start, end: sp.Start.Add(sp.Dur), frag: f, structural: structural,
				})
			}
		}
		for _, w := range walByTx[root.Tx] {
			t.spans = append(t.spans, span{
				Trace: traceID, Tx: tx, Site: string(w.site), Name: "wal.append",
				Note:  fmt.Sprintf("%d records", w.records),
				start: w.start, end: w.end, frag: -1,
			})
		}
		t.link()
		out = append(out, t)
	}
	// Slowest first: the trace file keeps a spread of them.
	sort.Slice(out, func(i, j int) bool { return out[i].spans[0].dur() > out[j].spans[0].dur() })
	return out
}

// link gives every span its parent — the shortest span that covers it in
// time and is either structural or recorded at the same site (same fragment
// for site spans) — and its self time: its length minus the part its
// children cover.
func (t *tracedTx) link() {
	s := t.spans
	for i := range s {
		s[i].ID = i + 1
	}
	for i := range s {
		best := -1
		for j := range s {
			if i == j || s[j].start.After(s[i].start) || s[j].end.Before(s[i].end) {
				continue
			}
			if s[j].dur() == s[i].dur() && j > i {
				continue // identical intervals: the earlier one is the parent
			}
			sameSite := s[j].Site == s[i].Site && (s[i].frag < 0 || s[j].frag < 0 || s[i].frag == s[j].frag)
			if !s[j].structural && !sameSite {
				continue
			}
			if best < 0 || s[j].dur() < s[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			s[i].Parent = s[best].ID
		}
	}
	for i := range s {
		var kids []interval
		for j := range s {
			if s[j].Parent == s[i].ID {
				kids = append(kids, interval{s[j].start, s[j].end})
			}
		}
		s[i].SelfUS = float64(s[i].dur()-covered(kids)) / 1e3
	}
}

type interval struct{ start, end time.Time }

// covered returns the length of the union of the intervals.
func covered(in []interval) time.Duration {
	sort.Slice(in, func(i, j int) bool { return in[i].start.Before(in[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range in {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// budget is where the sampled transactions' time went.
type budget struct {
	traces int
	// latMS is their mean client latency; execSelfMS the mean time of the
	// home site's exec span not covered by its op/prepare/decide children.
	latMS, execSelfMS float64
	// unexplained is the share of client latency covered by no leaf stage
	// span of any site: wire transit, scheduling and code between stages.
	unexplained float64
	// selfMS is the mean self time per transaction, by span name.
	selfMS map[string]float64
}

func budgetOf(traces []tracedTx) budget {
	b := budget{traces: len(traces), selfMS: make(map[string]float64)}
	if b.traces == 0 {
		return b
	}
	var lat, leaf time.Duration
	for _, t := range traces {
		root := t.spans[0]
		lat += root.dur()
		var leaves []interval
		for _, s := range t.spans {
			b.selfMS[s.Name] += s.SelfUS / 1e3
			if !s.structural {
				leaves = append(leaves, interval{maxTime(s.start, root.start), minTime(s.end, root.end)})
			}
		}
		if len(leaves) > 0 {
			leaf += covered(leaves)
		}
	}
	n := float64(b.traces)
	for name := range b.selfMS {
		b.selfMS[name] /= n
	}
	b.latMS = ms(lat) / n
	b.execSelfMS = b.selfMS["exec"]
	b.unexplained = 1 - ratio(float64(leaf), float64(lat))
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// sampledStage folds every sampled span of one stage into a histogram. The
// sites fold the same spans into their always-on stage histograms when a
// fragment completes, on top of the always-on observation of the same wait,
// so always-on stages are counted twice for sampled transactions.
func sampledStage(fragments [][]trace.Trace, stage trace.Stage, from, to time.Time) monitor.Histogram {
	var h monitor.Histogram
	for _, frs := range fragments {
		for _, fr := range frs {
			if fr.End.Before(from) || fr.End.After(to) {
				continue
			}
			for _, sp := range fr.Spans {
				if sp.Stage == stage {
					h.Observe(int64(sp.Dur))
				}
			}
		}
	}
	return h
}

// ---- trace file ----

// maxFileTraces bounds the trace file: of the window's sampled transactions,
// sorted slowest first, an evenly strided subset is written.
const maxFileTraces = 400

type traceFile struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	WindowS       float64 `json:"window_s"`
	SampleRate    float64 `json:"sample_rate"`
	TracesSampled int     `json:"traces_sampled"`
	TracesWritten int     `json:"traces_written"`
	Spans         []span  `json:"spans"`
}

// writeTraceFile writes out/trace-<workload>.json. Spans stayed in memory
// until now; span IDs are renumbered to be unique in the file.
func writeTraceFile(dir string, w workload, seed int64, window phase, traces []tracedTx) (string, error) {
	f := traceFile{
		Workload: w.name, Seed: seed, WindowS: window.end.Sub(window.start).Seconds(),
		SampleRate: traceSampleRate, TracesSampled: len(traces),
	}
	stride := (len(traces) + maxFileTraces - 1) / maxFileTraces
	for i := 0; i < len(traces); i += max(stride, 1) {
		base := len(f.Spans)
		for _, s := range traces[i].spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			s.StartUS = float64(s.start.Sub(window.start)) / 1e3
			s.EndUS = float64(s.end.Sub(window.start)) / 1e3
			f.Spans = append(f.Spans, s)
		}
		f.TracesWritten++
	}
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+w.name+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// ---- per-layer metrics ----

// layerInputs is everything the per-layer report is computed from.
type layerInputs struct {
	window    phase
	slices    endToEnd
	stats     statsDelta
	fragments [][]trace.Trace
	// Probe counters read when the window ended.
	msgs, walCalls uint64
	walBusy        time.Duration
	budget         budget
	mem            [2]runtime.MemStats
	// From the epilogue.
	eventsPerTx float64
	recover     time.Duration
}

// layerMetrics computes the per-layer metrics of a traced run, in the order
// of BENCHMARK.json's per_layer list.
func layerMetrics(in layerInputs) []metric {
	d := in.stats
	tx := float64(in.window.attempted())
	lat := summarize(in.window.samples)
	seconds := in.window.end.Sub(in.window.start).Seconds()

	// Always-on lock_wait minus the sampled spans folded in a second time.
	lockWait := d.stage("lock_wait")
	twice := sampledStage(in.fragments, trace.StageLockWait, in.window.start, in.window.end)
	lockWait.Count -= min(twice.Count, lockWait.Count)
	lockWait.SumNS -= min(twice.SumNS, lockWait.SumNS)
	for k := range lockWait.Buckets {
		lockWait.Buckets[k] -= min(twice.Buckets[k], lockWait.Buckets[k])
	}

	submitted := d.sum(func(s monitor.SiteStats) uint64 { return s.PipeSubmitted })
	adds := d.sum(func(s monitor.SiteStats) uint64 { return s.CCAdds })
	queue, admit := d.stage("queue"), d.stage("admit")
	prepare, decide := d.stage("prepare"), d.stage("decide")
	netQueue, netFlush, fsync := d.stage("net_queue"), d.stage("net_flush"), d.stage("wal_fsync")
	count := func(h monitor.Histogram) string { return fmt.Sprintf("n=%d", h.Count) }

	return []metric{
		{"site.exec_self_ms", "ms", in.budget.execSelfMS, fmt.Sprintf("n=%d sampled tx", in.budget.traces)},
		{"site.queue_ms", "ms", meanMS(queue), count(queue)},
		{"site.admit_ms", "ms", meanMS(admit), count(admit)},
		{"pipeline.batch", "ops/batch", ratio(submitted, d.sum(func(s monitor.SiteStats) uint64 { return s.PipeBatches })), ""},
		{"pipeline.spill_share", "share", ratio(d.sum(func(s monitor.SiteStats) uint64 { return s.PipeSpills }), submitted), ""},
		{"rcp.round_trips_per_tx", "1/tx", ratio(d.sum(func(s monitor.SiteStats) uint64 { return s.RoundTrips }), tx), ""},
		{"wire.msgs_per_tx", "1/tx", ratio(float64(in.msgs), tx), ""},
		{"tcpnet.bytes_per_tx", "B/tx", ratio(d.net(func(s monitor.SiteStats) uint64 { return s.NetSentBytes }), tx), ""},
		{"tcpnet.envs_per_flush", "env/flush", ratio(d.net(func(s monitor.SiteStats) uint64 { return s.NetSentEnvelopes }), d.net(func(s monitor.SiteStats) uint64 { return s.NetSendFlushes })), ""},
		{"tcpnet.net_queue_ms", "ms", meanMS(netQueue), count(netQueue)},
		{"tcpnet.net_flush_ms", "ms", meanMS(netFlush), count(netFlush)},
		{"cc.lock_wait_ms_per_tx", "ms/tx", ratio(float64(lockWait.SumNS)/1e6, tx), fmt.Sprintf("n=%d waits", lockWait.Count)},
		{"cc.lock_wait_p99_ms", "ms", ms(lockWait.Quantile(0.99)), count(lockWait)},
		{"cc.abort_ccp_share", "share", ratio(float64(in.window.ccpAborts), float64(in.window.executes)), fmt.Sprintf("%d of %d executes", in.window.ccpAborts, in.window.executes)},
		{"cc.split_add_share", "share", ratio(d.sum(func(s monitor.SiteStats) uint64 { return s.CCSplitAdds }), adds), fmt.Sprintf("n=%.0f adds", adds)},
		{"cc.drains", "count", d.sum(func(s monitor.SiteStats) uint64 { return s.CCDrains }), ""},
		{"acp.prepare_ms", "ms", meanMS(prepare), count(prepare)},
		{"acp.decide_ms", "ms", meanMS(decide), count(decide)},
		{"wal.append_calls_per_tx", "1/tx", ratio(float64(in.walCalls), tx), ""},
		{"wal.append_busy_ms_per_tx", "ms/tx", ratio(ms(in.walBusy), tx), ""},
		{"wal.recs_per_flush", "rec/flush", ratio(d.sum(func(s monitor.SiteStats) uint64 { return s.WALRecords }), d.sum(func(s monitor.SiteStats) uint64 { return s.WALFlushes })), ""},
		{"wal.fsync_ms", "ms", meanMS(fsync), count(fsync)},
		{"wal.bytes_per_tx", "B/tx", ratio(d.sum(func(s monitor.SiteStats) uint64 { return s.WALBytes }), tx), ""},
		{"wal.recover_ms", "ms", ms(in.recover), "per site, reopen + replay"},
		{"history.events_per_tx", "1/tx", in.eventsPerTx, "epilogue tail"},
		{"process.heap_mb", "MB", float64(in.mem[1].HeapAlloc) / (1 << 20), "at window end"},
		{"process.gc_pause_ms", "ms/s", ratio(float64(in.mem[1].PauseTotalNs-in.mem[0].PauseTotalNs)/1e6, seconds), fmt.Sprintf("%d cycles", in.mem[1].NumGC-in.mem[0].NumGC)},
		{"budget.unexplained_share", "share", in.budget.unexplained, fmt.Sprintf("of %.4f ms sampled mean latency", in.budget.latMS)},
		{"trace.lat_mean_ms", "ms", lat.mean, fmt.Sprintf("n=%d", lat.n)},
		{"trace.tx_per_s", "1/s", in.slices.txPerS, "median of slices, as tx_per_s"},
	}
}
