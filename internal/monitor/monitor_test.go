package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.95) != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(int64(time.Millisecond))
	h.Observe(int64(2 * time.Millisecond))
	h.Observe(int64(3 * time.Millisecond))
	if h.Count != 3 {
		t.Errorf("Count = %d", h.Count)
	}
	if m := h.Mean(); m != 2*time.Millisecond {
		t.Errorf("Mean = %v", m)
	}
	if h.MaxNS != uint64(3*time.Millisecond) {
		t.Errorf("Max = %d", h.MaxNS)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count != 1 || h.SumNS != 0 {
		t.Errorf("negative sample mishandled: %+v", h)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * int64(time.Microsecond))
	}
	p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if p50 > p95 || p95 > p99 {
		t.Errorf("quantiles not ordered: %v %v %v", p50, p95, p99)
	}
	// p95 of ~1ms data must be within a bucket factor (2x) of the truth.
	if p95 < 500*time.Microsecond || p95 > 4*time.Millisecond {
		t.Errorf("p95 = %v, expected near 950µs", p95)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(int64(time.Millisecond))
	b.Observe(int64(5 * time.Millisecond))
	a.Merge(b)
	if a.Count != 2 || a.MaxNS != uint64(5*time.Millisecond) {
		t.Errorf("merge = %+v", a)
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector("S1")
	c.Add(Began, 1)
	c.Add(Began, 1)
	c.Add(Began, 1)
	c.TxDone(true, model.AbortNone, time.Millisecond)
	c.TxDone(false, model.AbortCC, 2*time.Millisecond)
	c.TxDone(false, model.AbortRCP, time.Millisecond)
	c.Add(RoundTrips, 7)

	s := c.Snapshot(2)
	if s.Began != 3 || s.Committed != 1 || s.Aborted != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.AbortsByCause["ccp"] != 1 || s.AbortsByCause["rcp"] != 1 {
		t.Errorf("aborts = %v", s.AbortsByCause)
	}
	if s.RoundTrips != 7 || s.Orphans != 2 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.CommitRate(); got < 0.32 || got > 0.34 {
		t.Errorf("commit rate = %v", got)
	}
	if s.Latency.Count != 3 {
		t.Errorf("latency samples = %d", s.Latency.Count)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector("S1")
	c.Add(Began, 1)
	c.TxDone(true, model.AbortNone, time.Millisecond)
	c.Reset()
	s := c.Snapshot(0)
	if s.Began != 0 || s.Committed != 0 || s.Latency.Count != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

func TestSiteStatsThroughput(t *testing.T) {
	s := SiteStats{Committed: 100, WindowNS: int64(2 * time.Second)}
	if got := s.Throughput(); got != 50 {
		t.Errorf("Throughput = %v", got)
	}
	if (SiteStats{}).Throughput() != 0 {
		t.Error("zero window should not divide by zero")
	}
	if (SiteStats{}).CommitRate() != 0 {
		t.Error("zero began should not divide by zero")
	}
}

func report() Report {
	mk := func(site model.SiteID, began, committed uint64) SiteStats {
		return SiteStats{
			Site: site, Began: began, Committed: committed,
			Aborted:       began - committed,
			AbortsByCause: map[string]uint64{"ccp": began - committed},
			WindowNS:      int64(time.Second),
		}
	}
	return Report{
		Sites: []SiteStats{mk("S1", 100, 90), mk("S2", 100, 80), mk("S3", 100, 85)},
		Net:   NetStats{Sent: 1000, Delivered: 950, Dropped: 50, Bytes: 100000},
	}
}

func TestReportTotals(t *testing.T) {
	r := report()
	tot := r.Totals()
	if tot.Began != 300 || tot.Committed != 255 || tot.Aborted != 45 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.AbortsByCause["ccp"] != 45 {
		t.Errorf("aborts = %v", tot.AbortsByCause)
	}
}

func TestReportRates(t *testing.T) {
	r := report()
	if mps := r.MessagesPerSecond(); mps < 940 || mps > 960 {
		t.Errorf("msg/s = %v", mps)
	}
	if mpc := r.MessagesPerCommit(); mpc < 3.7 || mpc > 3.8 {
		t.Errorf("msg/commit = %v", mpc)
	}
}

func TestLoadImbalance(t *testing.T) {
	r := report()
	if cv := r.LoadImbalance(); cv != 0 {
		t.Errorf("balanced load should be cv=0, got %v", cv)
	}
	r.Sites[0].Began = 400
	if cv := r.LoadImbalance(); cv <= 0 {
		t.Error("imbalanced load should have cv > 0")
	}
	if (Report{}).LoadImbalance() != 0 {
		t.Error("empty report should be 0")
	}
}

func TestRenderContainsPaperStatistics(t *testing.T) {
	out := report().Render()
	// Every statistic of the paper's Section-3 list must appear.
	for _, want := range []string{
		"committed=", "aborted=", "commit rate:", "aborts[ccp]:",
		"throughput:", "response time:", "messages:", "msg/s",
		"round trips:", "orphan transactions:", "load imbalance",
		"per-site:", "S1", "S2", "S3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

func TestRenderContainsDurabilityStatistics(t *testing.T) {
	r := report()
	r.Sites[0].Checkpoints = 3
	r.Sites[0].SegmentsCompacted = 7
	r.Sites[0].WALSegments = 2
	r.Sites[0].WALBytes = 4096
	r.Sites[0].RecoveryRecords = 12
	r.Sites[0].RecoveryNS = int64(3 * time.Millisecond)
	r.Sites[0].StoreShards = []ShardStat{{Items: 4, Hits: 10}, {Items: 5, Hits: 30}}
	out := r.Render()
	for _, want := range []string{
		"durability:", "3 checkpoints", "7 segments compacted",
		"recovery: replayed 12 records", "store shards: 2", "occupancy 4-5",
		"hit skew",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestAddWaveCounters: the add-only wave counters are window-scoped by the
// collector, summed across sites and rendered on one line.
func TestAddWaveCounters(t *testing.T) {
	c := NewCollector("S1")
	c.Add(AddWaves, 1)
	c.Add(AddWaves, 1)
	c.Add(AddWaveReruns, 1)
	c.Add(VotedLegs, 1)
	if s := c.Snapshot(0); s.AddWaves != 2 || s.AddWaveReruns != 1 || s.VotedLegs != 1 {
		t.Errorf("snapshot = %d add waves, %d reruns, %d voted legs; want 2, 1, 1", s.AddWaves, s.AddWaveReruns, s.VotedLegs)
	}
	c.Reset()
	if s := c.Snapshot(0); s.AddWaves != 0 || s.AddWaveReruns != 0 || s.VotedLegs != 0 {
		t.Errorf("reset left %+v", s)
	}

	r := report()
	r.Sites[0].AddWaves, r.Sites[0].AddWaveReruns = 10, 1
	r.Sites[1].VotedLegs, r.Sites[2].VotedLegs = 9, 8
	if tot := r.Totals(); tot.AddWaves != 10 || tot.AddWaveReruns != 1 || tot.VotedLegs != 17 {
		t.Errorf("totals = %d add waves, %d reruns, %d voted legs; want 10, 1, 17", tot.AddWaves, tot.AddWaveReruns, tot.VotedLegs)
	}
	if out := r.Render(); !strings.Contains(out, "add waves: 10 shipped at once, 1 rerun in order, 17 legs voted") {
		t.Errorf("Render() missing the add-wave line:\n%s", out)
	}
}

// TestOneForceCounters: the home single-force and lost-vote rerun counters
// are window-scoped by the collector, summed across sites and rendered on
// one line.
func TestOneForceCounters(t *testing.T) {
	c := NewCollector("S1")
	c.Add(HomeForces, 1)
	c.Add(HomeForces, 1)
	c.Add(VoteLostReruns, 1)
	if s := c.Snapshot(0); s.HomeForces != 2 || s.VoteLostReruns != 1 {
		t.Errorf("snapshot = %d home forces, %d lost-vote reruns; want 2 and 1", s.HomeForces, s.VoteLostReruns)
	}
	c.Reset()
	if s := c.Snapshot(0); s.HomeForces != 0 || s.VoteLostReruns != 0 {
		t.Errorf("reset left %+v", s)
	}

	r := report()
	r.Sites[0].HomeForces, r.Sites[1].HomeForces, r.Sites[2].VoteLostReruns = 6, 4, 1
	if tot := r.Totals(); tot.HomeForces != 10 || tot.VoteLostReruns != 1 {
		t.Errorf("totals = %d home forces, %d lost-vote reruns; want 10 and 1", tot.HomeForces, tot.VoteLostReruns)
	}
	if out := r.Render(); !strings.Contains(out, "one-force commits: 10 homes forced prepare with decision, 1 waves rerun after a lost vote") {
		t.Errorf("Render() missing the one-force line:\n%s", out)
	}
}

// TestHomeFirstCounters: the home-first wave and rerun counters are
// window-scoped by the collector, counted apart from the add-wave reruns,
// summed across sites and rendered on one line.
func TestHomeFirstCounters(t *testing.T) {
	c := NewCollector("S3")
	c.Add(HomeFirstWaves, 1)
	c.Add(HomeFirstWaves, 1)
	c.Add(HomeFirstReruns, 1)
	if s := c.Snapshot(0); s.HomeFirstWaves != 2 || s.HomeFirstReruns != 1 || s.AddWaveReruns != 0 {
		t.Errorf("snapshot = %d home-first waves, %d home-first reruns, %d add-wave reruns; want 2, 1, 0", s.HomeFirstWaves, s.HomeFirstReruns, s.AddWaveReruns)
	}
	c.Reset()
	if s := c.Snapshot(0); s.HomeFirstWaves != 0 || s.HomeFirstReruns != 0 {
		t.Errorf("reset left %+v", s)
	}

	r := report()
	r.Sites[2].HomeFirstWaves, r.Sites[2].HomeFirstReruns = 30, 2
	r.Sites[1].HomeFirstWaves = 1
	if tot := r.Totals(); tot.HomeFirstWaves != 31 || tot.HomeFirstReruns != 2 {
		t.Errorf("totals = %d home-first waves, %d reruns; want 31 and 2", tot.HomeFirstWaves, tot.HomeFirstReruns)
	}
	if out := r.Render(); !strings.Contains(out, "home-first waves: 31 shipped the home's leg first, 2 rerun in order") {
		t.Errorf("Render() missing the home-first line:\n%s", out)
	}
}

func TestShardSkewAndOccupancy(t *testing.T) {
	var s SiteStats
	if s.ShardSkew() != 0 {
		t.Error("no shards should mean zero skew")
	}
	s.StoreShards = []ShardStat{{Items: 3, Hits: 50}, {Items: 9, Hits: 50}}
	if got := s.ShardSkew(); got != 0 {
		t.Errorf("uniform hits should give skew 0, got %f", got)
	}
	min, max := s.ShardOccupancy()
	if min != 3 || max != 9 {
		t.Errorf("occupancy = %d-%d, want 3-9", min, max)
	}
	s.StoreShards = []ShardStat{{Hits: 100}, {Hits: 0}}
	if got := s.ShardSkew(); got <= 0.9 {
		t.Errorf("fully skewed hits should give cv ~1, got %f", got)
	}
	// Totals carry the durability counters through.
	r := report()
	r.Sites[1].Checkpoints = 2
	r.Sites[2].SegmentsCompacted = 4
	tot := r.Totals()
	if tot.Checkpoints != 2 || tot.SegmentsCompacted != 4 {
		t.Errorf("totals lost durability counters: %+v", tot)
	}
}
