package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/nameserver"
	"repro/internal/site"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Tracing policy of a traced run: 5% of transactions sampled, and a ring
// large enough that no fragment of the window is evicted before the run
// ends (the per-layer sums subtract the sampled spans from the always-on
// histograms, which needs all of them).
const (
	traceSampleRate = 0.05
	traceRing       = 1 << 17
)

// fullLog is what both WAL backends offer; the site probes its Log for the
// optional parts, so a wrapper must keep all of them.
type fullLog interface {
	wal.Compactable
	wal.BatchStats
	wal.Observable
}

// cluster is a 3-site Rainbow instance assembled in this process over real
// loopback TCP: one name server, one site per ID, each site with its own
// listener, so every remote copy operation pays framing and syscall costs.
// No delay is injected: latency is processor, syscall and fsync time.
type cluster struct {
	w       workload
	net     *tcpnet.Net
	ns      *nameserver.Server
	sites   []*site.Site
	configs []site.Config
	// logs are the sites' real WALs (never the probe wrappers): restart
	// reopens them.
	logs []fullLog
	// walDir holds the per-site segment directories of a durable workload.
	walDir string
	// probes is nil in an untraced run: the measured path then contains no
	// harness code at the seams.
	probes *probes
}

// newCluster builds the catalog, the listeners, the WALs and the sites.
// scratch is where a durable workload keeps its segment files.
func newCluster(w workload, traced bool, scratch string) (*cluster, error) {
	exp := config.Default()
	exp.Name = w.name
	exp.Sites = siteIDs()
	exp.Items = make(map[model.ItemID]int64, w.items)
	for _, id := range w.itemIDs() {
		exp.Items[id] = initialValue
	}
	exp.Protocols.RCP, exp.Protocols.CCP, exp.Protocols.ACP = "qc", "2pl", "2pc"
	exp.TimeoutsMS = config.TimeoutsMS{Op: 1000, Vote: 1000, Ack: 500, Lock: lockTimeoutMS, OrphanResolve: 100}
	if traced {
		exp.TraceSampleRate = traceSampleRate
		exp.TraceRing = traceRing
	}
	cat, err := exp.BuildCatalog()
	if err != nil {
		return nil, err
	}

	c := &cluster{w: w, net: tcpnet.New(map[model.SiteID]string{})}
	var siteNet wire.Network = c.net
	if traced {
		c.probes = newProbes()
		siteNet = &countingNet{Net: c.net, p: c.probes}
	}
	if c.ns, err = nameserver.New(c.net, cat); err != nil {
		return nil, err
	}
	if w.durable {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		if c.walDir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			c.close()
			return nil, err
		}
	}
	for _, id := range exp.Sites {
		log, err := c.openLog(id)
		if err != nil {
			c.close()
			return nil, err
		}
		c.logs = append(c.logs, log)
		c.configs = append(c.configs, site.Config{ID: id, Net: siteNet, Catalog: cat.Clone()})
	}
	if err := c.startSites(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// openLog opens (or, after a restart, reopens) one site's WAL.
func (c *cluster) openLog(id model.SiteID) (fullLog, error) {
	if !c.w.durable {
		return wal.NewMemory(), nil
	}
	return wal.OpenSegmented(filepath.Join(c.walDir, string(id)), wal.SegmentOptions{Sync: true})
}

// startSites brings every site up over c.logs; a WAL that already holds
// records is replayed by site.New before the site serves traffic.
func (c *cluster) startSites() error {
	c.sites = c.sites[:0]
	for i, cfg := range c.configs {
		cfg.Log = c.logs[i]
		if c.probes != nil {
			cfg.Log = &timedLog{fullLog: c.logs[i], p: c.probes, site: cfg.ID}
		}
		st, err := site.New(cfg)
		if err != nil {
			return fmt.Errorf("site %s: %w", cfg.ID, err)
		}
		c.sites = append(c.sites, st)
	}
	return nil
}

// restart stops every site and brings it back from its WAL alone, the way a
// rainbow-site process restarts: volatile state is gone, the log is
// reopened and replayed. (Site.Crash/Recover cannot stand in: Recover
// reopens only a MemoryLog, so a file WAL stays closed.) It returns the
// mean per-site reopen-and-replay time.
func (c *cluster) restart() (time.Duration, error) {
	for _, st := range c.sites {
		if err := st.Close(); err != nil {
			return 0, fmt.Errorf("close %s: %w", st.ID(), err)
		}
	}
	start := time.Now()
	for i, cfg := range c.configs {
		if ml, ok := c.logs[i].(*wal.MemoryLog); ok {
			ml.Reopen()
			continue
		}
		log, err := c.openLog(cfg.ID)
		if err != nil {
			return 0, err
		}
		c.logs[i] = log
	}
	if err := c.startSites(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(len(c.sites)), nil
}

// close stops every process-like part of the cluster and removes the WAL
// files. Errors are dropped: the run's verdict is already decided.
func (c *cluster) close() {
	for _, st := range c.sites {
		st.Close() //nolint:errcheck
	}
	if c.ns != nil {
		c.ns.Close() //nolint:errcheck
	}
	if c.walDir != "" {
		os.RemoveAll(c.walDir) //nolint:errcheck
	}
}
