// Command rainbow-site runs one Rainbow site as its own process over TCP.
// The site fetches its configuration from the name server (cmd/rainbow-ns),
// registers its endpoint, and serves transaction processing traffic. The
// catalog must include address entries for peer sites (the name server's
// "id and end point specifications"); this binary derives the address book
// from the same configuration file.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/site"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wal"
)

func main() {
	id := flag.String("id", "", "site id (must appear in the configuration)")
	addr := flag.String("addr", "127.0.0.1:0", "this site's listen address")
	nsAddr := flag.String("ns", "127.0.0.1:7000", "name server address")
	book := flag.String("peers", "", "comma-separated peer address book: S1=host:port,S2=host:port")
	walPath := flag.String("wal", "", "WAL directory (segmented binary log); empty = in-memory log")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "segment rotation threshold; 0 derives one from -checkpoint-bytes (compaction reclaims whole segments, so several must fit per checkpoint)")
	cfgPath := flag.String("config", "", "experiment configuration (JSON); empty = fetch from name server")
	shards := flag.Int("shards", 0, "data-plane shard count (0 = GOMAXPROCS-derived)")
	ckptBytes := flag.Int64("checkpoint-bytes", 4<<20, "checkpoint after this many WAL bytes appended (0 disables the bytes trigger)")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "periodic checkpoint interval (0 disables the timer)")
	ckptDeltaMax := flag.Int("checkpoint-delta-max", 8, "consecutive delta (dirty-shards-only) snapshots before a full snapshot is forced (0 = defer to the config file's value, negative = every snapshot full)")
	ckptCOW := flag.Bool("checkpoint-cow", true, "capture snapshots copy-on-write so the decision pipeline stalls O(shards), not O(data); false copies under the gate (ablation; a config file's checkpoint_no_cow also disables it)")
	ckptDirtyItems := flag.Bool("checkpoint-dirty-items", true, "track dirty items per shard so delta snapshots carry only written items; false captures whole dirty shards (ablation; a config file's checkpoint_no_dirty_items also disables it)")
	catalogPoll := flag.Duration("catalog-poll", 5*time.Second, "interval for probing the name server's catalog epoch; a moved epoch live-reconfigures the site (0 disables polling; pushed updates still apply)")
	traceRate := flag.Float64("trace-sample", 0, "fraction of home transactions traced end to end (0 = only the config file's trace_sample_rate, if any)")
	traceRing := flag.Int("trace-ring", 0, "completed-trace ring bound (0 = default or the config file's value)")
	traceSlow := flag.Duration("trace-slow", 0, "dump the stage breakdown of root traces slower than this to stderr (0 = only the config file's trace_slow_ms, if any)")
	flag.Parse()

	if *id == "" {
		fmt.Fprintln(os.Stderr, "rainbow-site: -id is required")
		os.Exit(2)
	}

	var catalog *schema.Catalog
	if *cfgPath != "" {
		exp, err := config.Load(*cfgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainbow-site:", err)
			os.Exit(1)
		}
		catalog, err = exp.BuildCatalog()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainbow-site:", err)
			os.Exit(1)
		}
	}

	addrs := map[model.SiteID]string{
		model.NameServerID: *nsAddr,
		model.SiteID(*id):  *addr,
	}
	if *book != "" {
		for _, pair := range strings.Split(*book, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "rainbow-site: malformed -peers entry %q\n", pair)
				os.Exit(2)
			}
			addrs[model.SiteID(k)] = v
		}
	}
	net := tcpnet.New(addrs)

	var log wal.Log
	if *walPath != "" {
		segBytes := *walSegBytes
		if segBytes <= 0 && *ckptBytes > 0 {
			// Aim for ~4 segments per checkpoint window so compaction
			// (whole segments only) can actually reclaim space.
			segBytes = *ckptBytes / 4
			if segBytes < 16<<10 {
				segBytes = 16 << 10
			}
			if segBytes > wal.DefaultSegmentBytes {
				segBytes = wal.DefaultSegmentBytes
			}
		}
		sl, err := wal.OpenSegmented(*walPath, wal.SegmentOptions{Sync: true, SegmentBytes: segBytes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainbow-site:", err)
			os.Exit(1)
		}
		log = sl
	}

	cfg := site.Config{
		ID: model.SiteID(*id), Net: net, Log: log, Register: true, Addr: *addr, Shards: *shards,
		Checkpoint: schema.CheckpointPolicy{
			Bytes: *ckptBytes, Interval: time.Duration(*ckptInterval),
			DeltaMax: *ckptDeltaMax, NoCOW: !*ckptCOW, NoDirtyItems: !*ckptDirtyItems,
		},
		Trace: schema.TracePolicy{
			SampleRate: *traceRate, Ring: *traceRing,
			SlowMS: int64(*traceSlow / time.Millisecond),
		},
		CatalogPoll: *catalogPoll,
	}
	cfg.Catalog = catalog

	st, err := site.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainbow-site:", err)
		os.Exit(1)
	}
	defer st.Close()

	// Slow-trace dumps print this site's fragment only; collating it with
	// the other sites' /site/{id}/traces exports by ID gives the full
	// distributed picture.
	st.Tracer().OnSlow(func(tr trace.Trace) {
		fmt.Fprintf(os.Stderr, "rainbow-site: slow transaction\n%s", trace.Format([]trace.Trace{tr}))
	})

	resolved, _ := net.Addr(model.SiteID(*id))
	fmt.Printf("Rainbow site %s serving on %s (ns at %s)\n", *id, resolved, *nsAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}
