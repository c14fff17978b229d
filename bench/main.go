// Command bench is Rainbow's benchmark: four workloads, each driven closed
// loop by two clients against a 3-site cluster assembled in this process
// over real loopback TCP. An untraced run gives the end-to-end metrics a
// user of the system would see; a separate traced run gives the per-layer
// metrics and writes the sampled spans to out/trace-<workload>.json; every
// run ends with an untimed correctness epilogue. See README.md.
//
// The harness compiles against a narrow surface only — config, model,
// monitor (the type of site.Stats), nameserver, site, tcpnet, trace, wal,
// wire, wlg, history — and uses no ablation knob, so later changes can
// delete those knobs without touching these files (api_test.go guards it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// outDir receives the trace files and, while a durable workload runs, its
// WAL segment directories. It is relative to the harness's own directory,
// which run.sh makes the working directory.
const outDir = "out"

// runConfig is one run of one workload.
type runConfig struct {
	w      workload
	seed   int64
	window time.Duration
	traced bool
	// setups is how many times the cluster is set up (and all but the last
	// torn down again); setup_s is the median.
	setups int
	// warmup and tail are transactions per client before the window and in
	// the correctness epilogue.
	warmup, tail int
}

const (
	defaultSeconds = 20
	defaultSetups  = 5
	// setupBudget bounds the time spent repeating set-ups (normally ~3 s).
	setupBudget     = 15 * time.Second
	warmupPerClient = 200
)

// report is one run's result.
type report struct {
	cfg        runConfig
	window     phase
	lat        latSummary
	slices     endToEnd
	metrics    []metric // end-to-end for an untraced run, per-layer for a traced one
	msgs       map[string]uint64
	budget     budget
	traceFile  string
	violations []string
}

func (r *report) correct() bool { return len(r.violations) == 0 }

// runOnce sets the cluster up, measures the window, and verifies.
func runOnce(cfg runConfig) (*report, error) {
	// Set-up: catalog, listeners, sites, WAL open, item load, warm-up — from
	// a standing start to the first timed transaction. Repeated, because one
	// set-up is a fraction of a second and its time is gated; cut short when
	// the box is so slow that the repeats would eat the run's time limit.
	var (
		c      *cluster
		d      *driver
		setups []float64
	)
	began := time.Now()
	for i := 0; i < cfg.setups && (i == 0 || time.Since(began) < setupBudget); i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		if c, err = newCluster(cfg.w, cfg.traced, outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d = newDriver(c, cfg.seed)
		if warm := d.run(phaseOpts{perClient: cfg.warmup, sequential: true}); warm.failed > 0 {
			c.close()
			return nil, fmt.Errorf("set-up: %d of %d warm-up transactions failed", warm.failed, warm.attempted())
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()
	setupS := median(setups)

	// The measured window. Garbage from set-up is collected first so the
	// window pays only for its own allocations.
	runtime.GC()
	var in layerInputs
	if cfg.traced {
		c.probes.reset()
	}
	runtime.ReadMemStats(&in.mem[0])
	in.stats.before = c.stats()
	window := d.run(phaseOpts{window: cfg.window, keepSpans: cfg.traced})
	in.stats.after = c.stats()
	runtime.ReadMemStats(&in.mem[1])
	in.window = window

	r := &report{cfg: cfg, window: window, lat: summarize(window.samples), slices: sliceMedians(window, cfg.window)}
	var walSpans []walSpan
	if cfg.traced {
		for _, st := range c.sites {
			in.fragments = append(in.fragments, st.Traces())
		}
		r.msgs, in.msgs = c.probes.msgCounts()
		in.walCalls, in.walBusy = c.probes.walCalls.Load(), time.Duration(c.probes.walBusyNS.Load())
		c.probes.mu.Lock()
		walSpans = c.probes.walSpans
		c.probes.mu.Unlock()
		for _, s := range in.stats.after {
			if s.TraceEvicted > 0 {
				r.violations = append(r.violations, fmt.Sprintf("site %s evicted %d trace fragments: ring too small for the window", s.Site, s.TraceEvicted))
			}
		}
	}

	// The untimed correctness epilogue.
	v := d.verify(cfg.tail)
	r.violations = append(r.violations, v.violations...)
	if window.failed > 0 {
		r.violations = append(r.violations, fmt.Sprintf("%d of %d transactions never committed within %d attempts", window.failed, window.attempted(), maxAttempts))
	}

	if !cfg.traced {
		perSlice := fmt.Sprintf("median of %d slices, n>=%d each", numSlices, r.slices.minN)
		r.metrics = []metric{
			{"tx_per_s", "1/s", r.slices.txPerS, perSlice},
			{"lat_p50_ms", "ms", r.slices.p50, perSlice},
			{"lat_p99_ms", "ms", r.slices.p99, perSlice},
			{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", len(setups))},
		}
		if !r.slices.p99ok {
			r.metrics[2].note += ", fewer than 10 samples beyond a slice's p99"
		}
		return r, nil
	}

	traces := buildTraces(window, in.fragments, walSpans)
	r.budget = budgetOf(traces)
	in.slices, in.budget, in.eventsPerTx, in.recover = r.slices, r.budget, v.eventsPerTx, v.recover
	r.metrics = layerMetrics(in)
	var err error
	if r.traceFile, err = writeTraceFile(outDir, cfg.w, cfg.seed, window, traces); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	return r, nil
}

// print writes the human-readable report and, as the last line, the result
// object of the benchmark contract.
func (r *report) print() {
	kind := "end-to-end (tracing off)"
	if r.cfg.traced {
		kind = fmt.Sprintf("per-layer (traced, %.0f%% sampled)", traceSampleRate*100)
	}
	w := r.window
	fmt.Printf("== %s  seed %d  %s  %d clients closed-loop, %d sites, %d ops/tx, qc/2pl/2pc, lock timeout %d ms\n",
		r.cfg.w.name, r.cfg.seed, kind, numClients, numSites, opsPerTx, lockTimeoutMS)
	fmt.Printf("   attempted %d  committed %d  failed %d  executes %d  aborted executes: ccp %d, other %d\n",
		w.attempted(), w.committed, w.failed, w.executes, w.ccpAborts, w.otherAborts)
	p999 := "n/a (needs 10 samples beyond it)"
	if r.lat.p999ok {
		p999 = fmt.Sprintf("%.4f ms", r.lat.p999)
	}
	seconds := w.end.Sub(w.start).Seconds()
	fmt.Printf("   whole window, %.3f s: %.1f tx/s; latency over all attempted transactions, submit to outcome: n=%d mean %.4f p50 %.4f p99 %.4f ms  p99.9 %s (not gated)\n",
		seconds, float64(w.committed)/seconds, r.lat.n, r.lat.mean, r.lat.p50, r.lat.p99, p999)
	for _, m := range r.metrics {
		fmt.Printf("   %-28s %14.4f %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	if r.cfg.traced {
		r.printBudget()
	}
	if r.correct() {
		fmt.Printf("   correctness: OK (serializable tail of %d tx, exact sums, restart read-back)\n", numClients*r.cfg.tail)
	}
	for i, v := range r.violations {
		if i == 10 {
			fmt.Printf("   ... and %d more violations\n", len(r.violations)-i)
			break
		}
		fmt.Printf("   correctness: VIOLATION: %s\n", v)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), w.attempted(), w.failed, make(map[string]value)}
	for _, m := range r.metrics {
		result.Metrics[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(result) // plain numbers and strings cannot fail
	fmt.Println(string(b))
}

// printBudget prints the traced run's extras: messages by kind and where the
// sampled transactions' time went.
func (r *report) printBudget() {
	kinds := make([]string, 0, len(r.msgs))
	for k := range r.msgs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("   wire.msgs_per_tx by kind:")
	for _, k := range kinds {
		fmt.Printf(" %s %.3f", k, ratio(float64(r.msgs[k]), float64(r.window.attempted())))
	}
	fmt.Println()
	names := make([]string, 0, len(r.budget.selfMS))
	for n := range r.budget.selfMS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return r.budget.selfMS[names[i]] > r.budget.selfMS[names[j]] })
	fmt.Printf("   self time per sampled tx (n=%d, mean latency %.4f ms; parallel sites overlap, so rows may exceed it):\n", r.budget.traces, r.budget.latMS)
	for _, n := range names {
		fmt.Printf("     %-16s %9.4f ms\n", n, r.budget.selfMS[n])
	}
	fmt.Printf("   trace file: %s\n", r.traceFile)
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 619, "workload seed: the same seed gives the same per-client operation streams")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	traceMode := flag.Int("trace", -1, "0: end-to-end run, tracing off; 1: traced per-layer run; -1: both, and the tracing overhead")
	repeat := flag.Int("repeat", 1, "run the end-to-end measurement this many times and fail if a metric's values disagree by more than its bound")
	flag.Parse()

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		setups: defaultSetups, warmup: warmupPerClient, tail: tailPerClient,
	}
	run := func() (bool, error) { return runAll(selected, cfg, *traceMode) }
	if *repeat > 1 {
		run = func() (bool, error) { return runRepeat(selected, cfg, *repeat) }
	}
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runAll runs each workload untraced, traced, or both (then also printing
// trace.overhead, the untraced/traced throughput ratio).
func runAll(selected []workload, cfg runConfig, traceMode int) (bool, error) {
	ok := true
	for _, w := range selected {
		cfg.w = w
		var txPerS [2]float64
		for mode := 0; mode <= 1; mode++ {
			if traceMode >= 0 && traceMode != mode {
				continue
			}
			cfg.traced = mode == 1
			if cfg.traced {
				cfg.setups = 1 // setup_s belongs to the untraced run
			}
			r, err := runOnce(cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			r.print()
			ok = ok && r.correct()
			txPerS[mode] = r.slices.txPerS
		}
		if traceMode < 0 {
			fmt.Printf("   %-28s %14.4f %-10s untraced/traced tx_per_s (not gated)\n", "trace.overhead", ratio(txPerS[0], txPerS[1]), "ratio")
		}
	}
	return ok, nil
}

// runRepeat runs the end-to-end measurement n times per workload and checks
// that every metric repeats within the bound BENCHMARK.json fixes for it.
func runRepeat(selected []workload, cfg runConfig, n int) (bool, error) {
	bounds, err := loadBounds()
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range selected {
		cfg.w = w
		values := make(map[string][]float64)
		var order []metric
		for i := 0; i < n; i++ {
			r, err := runOnce(cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			r.print()
			ok = ok && r.correct()
			order = r.metrics
			for _, m := range r.metrics {
				values[m.name] = append(values[m.name], m.value)
			}
		}
		fmt.Printf("== %s  repeatability over %d runs (spread = (max-min)/median)\n", w.name, n)
		for _, m := range order {
			vs := append([]float64(nil), values[m.name]...)
			sort.Float64s(vs)
			spread := ratio(vs[len(vs)-1]-vs[0], median(vs))
			verdict := "ok"
			if spread > bounds[m.name] {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("   %-12s %v %s  spread %.4f  bound %.2f  %s\n", m.name, values[m.name], m.unit, spread, bounds[m.name], verdict)
		}
	}
	return ok, nil
}

// loadBounds reads the end-to-end regression bounds from BENCHMARK.json at
// the root of the checkout, the one place they are fixed.
func loadBounds() (map[string]float64, error) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
