// Command rainbow-bench is a closed-loop load generator for measuring the
// copy-operation serve path and the TCP transport end to end.
// It assembles a full multi-site Rainbow cluster in one process — name
// server and sites wired over real loopback TCP sockets, so every remote
// copy operation pays genuine framing and syscall costs — then drives it
// with N closed-loop clients issuing Zipfian-skewed transactions for a
// fixed duration, and reports committed throughput with p50/p99 latency.
//
// Results are appended to a JSON file in the same format tools/benchjson
// emits (BENCH_load.json by default), so before/after comparisons stay
// machine-readable:
//
//	rainbow-bench -hot-split=false -out BENCH_load_before.json
//	rainbow-bench                  -out BENCH_load_after.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/nameserver"
	"repro/internal/schema"
	"repro/internal/site"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wlg"
)

// result mirrors tools/benchjson's Result so the load file concatenates
// with the benchmark archives.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`

	// traceReport is the -trace output (unexported: not serialized).
	traceReport string
}

func main() {
	nSites := flag.Int("sites", 3, "number of sites in the cluster")
	clients := flag.Int("clients", 16, "closed-loop client goroutines")
	duration := flag.Duration("duration", 5*time.Second, "measured load duration")
	zipf := flag.Float64("zipf", 1.2, "Zipf s parameter for item skew (<= 1 selects uniform access)")
	readRate := flag.Float64("read-rate", 0.75, "probability an operation is a read")
	addRate := flag.Float64("add-rate", 0, "probability a non-read operation is a blind commutative add")
	hotSplit := flag.Bool("hot-split", true, "2PL split execution of hot-item adds (false = cc_no_split ablation)")
	opsPerTx := flag.Int("ops", 4, "operations per transaction")
	items := flag.Int("items", 256, "database size (items, replicated everywhere)")
	hot := flag.Int("hot", 0, "restrict access to the first N items (0 = all)")
	shards := flag.Int("shards", 0, "per-site data-plane shard count (0 = GOMAXPROCS-derived)")
	rcp := flag.String("rcp", "qc", "replica control protocol (roap/qc)")
	ccp := flag.String("ccp", "2pl", "concurrency control protocol (2pl/tso/mvtso)")
	acp := flag.String("acp", "2pc", "atomic commitment protocol (2pc/3pc)")
	seed := flag.Int64("seed", 619, "workload seed")
	name := flag.String("name", "LoadZipfClosed", "benchmark name recorded in the output")
	out := flag.String("out", "BENCH_load.json", "output JSON file (benchjson format); empty disables")
	traceN := flag.Int("trace", 0, "print the N slowest sampled traces' collated stage breakdown after the run (0 disables tracing)")
	traceRate := flag.Float64("trace-sample", 0.05, "fraction of transactions traced when -trace is set")
	flag.Parse()

	res, err := run(benchConfig{
		sites: *nSites, clients: *clients, duration: *duration,
		zipf: *zipf, readRate: *readRate, addRate: *addRate, opsPerTx: *opsPerTx,
		items: *items, hot: *hot, shards: *shards,
		protocols: schema.Protocols{RCP: *rcp, CCP: *ccp, ACP: *acp, NoHotSplit: !*hotSplit},
		seed:      *seed, name: *name,
		traceN: *traceN, traceRate: *traceRate,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainbow-bench:", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d clients, %d sites, zipf %.2f, %s\n", *name, *clients, *nSites, *zipf, *duration)
	fmt.Printf("  committed %d aborted %d  throughput %.1f tx/s\n",
		int64(res.Metrics["committed"]), int64(res.Metrics["aborted"]), res.Metrics["tx/s"])
	fmt.Printf("  latency p50 %.2fms p90 %.2fms p99 %.2fms p99.9 %.2fms\n",
		res.Metrics["p50-ms"], res.Metrics["p90-ms"], res.Metrics["p99-ms"], res.Metrics["p999-ms"])
	fmt.Printf("  read-only tx p50 %.2fms p99 %.2fms  write tx p50 %.2fms p99 %.2fms\n",
		res.Metrics["read-p50-ms"], res.Metrics["read-p99-ms"],
		res.Metrics["write-p50-ms"], res.Metrics["write-p99-ms"])
	fmt.Printf("  net envelopes/flush %.2f (%.0f B/flush)\n",
		res.Metrics["net-coalesce"], res.Metrics["net-bytes-per-flush"])
	if res.Metrics["cc-adds"] > 0 {
		fmt.Printf("  hot-key split: %d adds (%d lock-free), %d splits / %d drains\n",
			int64(res.Metrics["cc-adds"]), int64(res.Metrics["cc-split-adds"]),
			int64(res.Metrics["cc-splits"]), int64(res.Metrics["cc-drains"]))
	}
	fmt.Print(res.traceReport)

	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "rainbow-bench:", err)
			os.Exit(1)
		}
	}
}

type benchConfig struct {
	sites, clients          int
	duration                time.Duration
	zipf, readRate, addRate float64
	opsPerTx, items, hot    int
	shards                  int
	protocols               schema.Protocols
	seed                    int64
	name                    string
	traceN                  int
	traceRate               float64
}

func run(bc benchConfig) (result, error) {
	exp := config.Default()
	exp.Name = bc.name
	exp.Sites = exp.Sites[:0]
	for i := 0; i < bc.sites; i++ {
		exp.Sites = append(exp.Sites, model.SiteID(fmt.Sprintf("S%d", i+1)))
	}
	exp.Items = make(map[model.ItemID]int64, bc.items)
	itemIDs := make([]model.ItemID, 0, bc.items)
	for i := 0; i < bc.items; i++ {
		id := model.ItemID(fmt.Sprintf("i%04d", i))
		exp.Items[id] = 100
		itemIDs = append(itemIDs, id)
	}
	exp.Protocols = bc.protocols
	exp.Shards = bc.shards
	if bc.traceN > 0 {
		exp.TraceSampleRate = bc.traceRate
		// Retain enough fragments that the slowest transactions of a multi-
		// second run are still in the ring at report time.
		exp.TraceRing = 4096
	}
	cat, err := exp.BuildCatalog()
	if err != nil {
		return result{}, err
	}

	// One tcpnet.Net hosts every node in-process; each attach gets its own
	// loopback listener, so inter-site traffic crosses real sockets.
	net := tcpnet.New(map[model.SiteID]string{})
	ns, err := nameserver.New(net, cat)
	if err != nil {
		return result{}, err
	}
	defer ns.Close()

	sites := make(map[model.SiteID]*site.Site, bc.sites)
	var siteList []*site.Site
	for _, id := range exp.Sites {
		st, err := site.New(site.Config{
			ID: id, Net: net, Catalog: cat.Clone(), Shards: bc.shards,
		})
		if err != nil {
			for _, s := range siteList {
				s.Close()
			}
			return result{}, err
		}
		sites[id] = st
		siteList = append(siteList, st)
	}
	defer func() {
		for _, s := range siteList {
			s.Close()
		}
	}()

	// Profile.withDefaults treats ReadFraction 0 as unset; an explicit
	// -read-rate 0 (pure-write/add workload) must stay zero.
	readFraction := bc.readRate
	if readFraction == 0 {
		readFraction = -1
	}
	gen := wlg.New(wlg.Profile{
		Sites: exp.Sites, Items: itemIDs,
		OpsPerTx: bc.opsPerTx, ReadFraction: readFraction, AddFraction: bc.addRate,
		Zipf: bc.zipf, HotItems: bc.hot, Seed: bc.seed,
		Transactions: 1, // unused: the closed loop below is duration-bound
	})

	type clientStats struct {
		committed, aborted int64
		// lats is split by transaction shape: read-only transactions skip
		// pre-writes, prepare forces and the write quorum, so their latency
		// distribution is reported separately from write transactions'.
		readLats, writeLats []time.Duration
	}
	stats := make([]clientStats, bc.clients)
	deadline := time.Now().Add(bc.duration)
	var wg sync.WaitGroup
	for c := 0; c < bc.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &stats[c]
			for n := c; time.Now().Before(deadline); n += bc.clients {
				ops := gen.NextTx()
				readOnly := true
				for _, op := range ops {
					if op.Kind != model.OpRead {
						readOnly = false
						break
					}
				}
				home := sites[exp.Sites[n%len(exp.Sites)]]
				start := time.Now()
				outcome := home.Execute(context.Background(), ops)
				if readOnly {
					cs.readLats = append(cs.readLats, time.Since(start))
				} else {
					cs.writeLats = append(cs.writeLats, time.Since(start))
				}
				if outcome.Committed {
					cs.committed++
				} else {
					cs.aborted++
				}
			}
		}(c)
	}
	wg.Wait()

	var committed, aborted int64
	var lats, readLats, writeLats []time.Duration
	for i := range stats {
		committed += stats[i].committed
		aborted += stats[i].aborted
		readLats = append(readLats, stats[i].readLats...)
		writeLats = append(writeLats, stats[i].writeLats...)
	}
	lats = append(append(lats, readLats...), writeLats...)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	sort.Slice(readLats, func(i, j int) bool { return readLats[i] < readLats[j] })
	sort.Slice(writeLats, func(i, j int) bool { return writeLats[i] < writeLats[j] })

	var rep monitor.Report
	for _, st := range siteList {
		rep.Sites = append(rep.Sites, st.Stats())
	}
	totals := rep.Totals()

	metrics := map[string]float64{
		"committed":           float64(committed),
		"aborted":             float64(aborted),
		"tx/s":                float64(committed) / bc.duration.Seconds(),
		"p50-ms":              pctlMS(lats, 0.50),
		"p90-ms":              pctlMS(lats, 0.90),
		"p99-ms":              pctlMS(lats, 0.99),
		"p999-ms":             pctlMS(lats, 0.999),
		"read-p50-ms":         pctlMS(readLats, 0.50),
		"read-p99-ms":         pctlMS(readLats, 0.99),
		"write-p50-ms":        pctlMS(writeLats, 0.50),
		"write-p99-ms":        pctlMS(writeLats, 0.99),
		"net-coalesce":        totals.NetCoalescing(),
		"net-bytes-per-flush": totals.NetBytesPerFlush(),
		"cc-adds":             float64(totals.CCAdds),
		"cc-split-adds":       float64(totals.CCSplitAdds),
		"cc-splits":           float64(totals.CCSplits),
		"cc-drains":           float64(totals.CCDrains),
	}
	res := result{Name: bc.name, Iterations: committed + aborted, Metrics: metrics}
	if bc.traceN > 0 {
		res.traceReport = slowTraceReport(siteList, bc.traceN)
	}
	return res, nil
}

// slowTraceReport collates every site's retained trace fragments by ID and
// renders the stage breakdowns of the n slowest root traces.
func slowTraceReport(siteList []*site.Site, n int) string {
	fragments := make([][]trace.Trace, 0, len(siteList))
	for _, st := range siteList {
		fragments = append(fragments, st.Traces())
	}
	groups := trace.Collate(fragments...)
	// Rank by the root fragment's end-to-end duration; fragment groups whose
	// root was evicted from its home ring are skipped.
	var rooted [][]trace.Trace
	for _, g := range groups {
		if g[0].Root {
			rooted = append(rooted, g)
		}
	}
	sort.Slice(rooted, func(i, j int) bool {
		return rooted[i][0].Duration() > rooted[j][0].Duration()
	})
	if len(rooted) > n {
		rooted = rooted[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  slowest %d of %d collated traces:\n", len(rooted), len(groups))
	for _, g := range rooted {
		b.WriteString(trace.Format(g))
	}
	return b.String()
}

// pctlMS returns the q-th percentile of sorted latencies in milliseconds.
func pctlMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// appendResult merges res into the (possibly existing) benchjson-format
// array at path.
func appendResult(path string, res result) error {
	var results []result
	if b, err := os.ReadFile(path); err == nil {
		json.Unmarshal(b, &results) //nolint:errcheck // unreadable file: start fresh
	}
	results = append(results, res)
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
