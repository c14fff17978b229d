// Package monitor implements Rainbow's progress monitor (the PM in PMlet):
// per-site transaction statistics, latency histograms, cluster aggregation,
// and the rendering of the paper's "Tx processing output" panel (Figure 5)
// with the full Section-3 statistics list — committed/aborted counts, abort
// rates per cause (RCP/ACP/CCP), commit rate, message traffic per time
// unit, throughput, response times, orphan transactions, round-trip
// message counts, and load balance indicators.
package monitor

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
)

// histBuckets is the number of power-of-two latency buckets, covering
// 1µs (bucket 0) to ~9h (bucket 44).
const histBuckets = 45

// Histogram is a fixed log2-bucket latency histogram. The zero value is
// ready to use.
type Histogram struct {
	Count   uint64
	SumNS   uint64
	MaxNS   uint64
	Buckets [histBuckets]uint64
}

func bucketOf(ns int64) int {
	if ns < 1000 {
		return 0
	}
	b := 0
	for v := uint64(ns) / 1000; v > 0 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Observe adds one latency sample.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Count++
	h.SumNS += uint64(ns)
	if uint64(ns) > h.MaxNS {
		h.MaxNS = uint64(ns)
	}
	h.Buckets[bucketOf(ns)]++
}

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// BucketUpperNS returns bucket b's upper edge in nanoseconds (1µs << b).
// Exported for metrics renderers that need the exposition-format edges.
func BucketUpperNS(b int) uint64 { return uint64(1000) << uint(b) }

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = histBuckets

// Quantile estimates the q-quantile (0 < q ≤ 1) by locating the bucket
// containing the target rank and interpolating linearly within it, assuming
// samples spread uniformly across the bucket. The estimate never exceeds
// the observed maximum, so tail quantiles of a one-sample histogram report
// that sample's bucket-resolution value rather than a whole bucket above.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		// Rank `target` falls in bucket b. Interpolate between the bucket's
		// edges; bucket 0's lower edge is 0 (it holds sub-1µs samples).
		upper := float64(BucketUpperNS(b))
		lower := upper / 2
		if b == 0 {
			lower = 0
		}
		frac := float64(target-cum) / float64(n)
		est := lower + frac*(upper-lower)
		if uint64(est) > h.MaxNS {
			est = float64(h.MaxNS)
		}
		return time.Duration(est)
	}
	return time.Duration(h.MaxNS)
}

// Merge adds other into h.
func (h *Histogram) Merge(other Histogram) {
	h.Count += other.Count
	h.SumNS += other.SumNS
	if other.MaxNS > h.MaxNS {
		h.MaxNS = other.MaxNS
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// SiteStats is a serializable snapshot of one site's counters.
type SiteStats struct {
	Site      model.SiteID
	Began     uint64
	Committed uint64
	Aborted   uint64
	// AbortsByCause keys abort counts by model.AbortCause.String().
	AbortsByCause map[string]uint64
	// RoundTrips counts request/response exchanges this site initiated.
	RoundTrips uint64
	// Orphans is the current number of in-doubt (blocked) transactions.
	Orphans int
	// Latency is the response-time distribution of finished transactions.
	Latency Histogram
	// WindowNS is the observation window covered by the counters.
	WindowNS int64
	// Shards is the site's data-plane shard count (storage shards and lock
	// stripes).
	Shards int
	// WALFlushes and WALRecords count WAL force-write cycles and the
	// records they carried; records/flushes is the group-commit batch size.
	WALFlushes uint64
	WALRecords uint64
	// WALSegments and WALBytes gauge the retained log volume (compaction
	// shrinks both).
	WALSegments int
	WALBytes    uint64
	// Checkpoints counts completed checkpoints and SegmentsCompacted the
	// WAL segments deleted by them in the window; CheckpointDeltas is how
	// many of the checkpoints were incremental (dirty-shards-only) deltas.
	Checkpoints       uint64
	CheckpointDeltas  uint64
	SegmentsCompacted uint64
	// CheckpointHorizon is the newest snapshot's replay horizon and
	// CheckpointPauseNS how long taking it stalled the decision pipeline
	// (the snapshot-gate hold); DirtyShards gauges the store shards dirtied
	// since that snapshot — the size of the next delta.
	CheckpointHorizon uint64
	CheckpointPauseNS int64
	DirtyShards       int
	// Decisions is the decision table's current size; retirement on fully
	// acknowledged cohorts keeps it from growing without bound.
	Decisions int
	// RecoveryRecords is the number of WAL records the site's last
	// (re)start replayed and RecoveryNS how long recovery took — the
	// bounded-recovery measures (full-history replay grows without bound;
	// checkpointed replay stays near the bytes-since-last-checkpoint knob).
	RecoveryRecords uint64
	RecoveryNS      int64
	// Epoch is the catalog version the site currently runs, and
	// Reconfigures how many live (no-restart) catalog reconfigurations it
	// has completed — the online re-sharding gauges.
	Epoch        uint64
	Reconfigures uint64
	// StoreShards carries per-shard occupancy and traffic, for spotting
	// hash skew across the sharded store.
	StoreShards []ShardStat
	// Copy-wave serve counters. PipeSubmitted counts the copy waves the site
	// served; PipeSpills those whose admission waited in a blocking CC call.
	// Each wave is admitted alone, so PipeBatches always equals
	// PipeSubmitted (one wave per batch).
	PipeSubmitted uint64
	PipeBatches   uint64
	PipeSpills    uint64
	// Hot-key split-execution gauges (2PL only; zero elsewhere). CCAdds
	// counts blind-add intents admitted, CCSplitAdds the subset admitted
	// lock-free through a split slot, CCSplits/CCDrains the items moved
	// into resp. out of split execution, and SplitItems the items split
	// right now.
	CCAdds      uint64
	CCSplitAdds uint64
	CCSplits    uint64
	CCDrains    uint64
	SplitItems  int
	// Concurrency-control counters (every manager): CCReads and CCPreWrites
	// count copy reads and pre-writes admitted, CCWaits operations that had
	// to wait, CCTimeouts waits that timed out, CCDeadlocks deadlock victims
	// (2PL) and CCRejections timestamp-order rejections (TSO, MVTSO). Each
	// is the cc.Stats counter of the same name.
	CCReads      uint64
	CCPreWrites  uint64
	CCRejections uint64
	CCDeadlocks  uint64
	CCTimeouts   uint64
	CCWaits      uint64
	// Add-only waves under 2PC: AddWaves counts the ones this home shipped
	// with every leg at once (rcp.PathAddAtOnce), AddWaveReruns those a leg
	// refused because it would have had to wait, rerun in order
	// (rcp.PathAddOrdered), and VotedLegs the legs this site served that
	// voted with their reply (an add-only wave's, or a read-write wave's last:
	// rcp.PathLastLegVote).
	AddWaves      uint64
	AddWaveReruns uint64
	VotedLegs     uint64
	// Read-write waves under 2PC: HomeForces counts the commits this home
	// forced its own prepared record with the decision for (one force, no
	// prepare round), and VoteLostReruns the one-shot programs it abandoned
	// and reran because a voting leg got no reply (rcp.PathAvoid).
	HomeForces     uint64
	VoteLostReruns uint64
	// Home-first waves under 2PC: HomeFirstWaves counts the first attempts
	// of waves that are not add-only whose home's own leg would sort last, so
	// this home ran it first and shipped every remote leg after it without
	// waiting (rcp.PathReadOnly or rcp.PathLastLegVote); HomeFirstReruns
	// those a remote leg refused because it would have had to wait, rerun in
	// order (rcp.PathPrepare).
	HomeFirstWaves  uint64
	HomeFirstReruns uint64
	// ReleasesAbandoned counts release-retry loops that exhausted their
	// attempts and left remote CC cleanup to the presumed-abort janitor.
	ReleasesAbandoned uint64
	// TailsUnacked counts commit tails (phase 2 after the forced decision)
	// that ended without every participant's ack: decisions that stay in
	// the coordinator's table until the participant asks for them.
	TailsUnacked uint64
	// TCP transport gauges (filled under the tcpnet backend; zero on the
	// simulated network). Envelopes per flush is the send-syscall
	// amortization of shared frames; NetRecvFrames counts decoded
	// multi-envelope frames.
	NetSentEnvelopes uint64
	NetSendFlushes   uint64
	NetRecvEnvelopes uint64
	NetRecvFrames    uint64
	// NetSentBytes counts framed bytes written (the bytes/flush numerator).
	NetSentBytes uint64
	// Stages holds per-stage latency histograms keyed by trace stage name
	// (queue, admit, lock_wait, wal_fsync, prepare, net_flush, ...): the
	// always-on aggregates plus the folded spans of sampled traces. Empty
	// stages are omitted.
	Stages map[string]Histogram
	// Trace sampling gauges: transactions sampled, completed fragments
	// retained, fragments evicted from the bounded ring, and root traces
	// over the slow threshold.
	TraceSampled   uint64
	TraceFragments uint64
	TraceEvicted   uint64
	TraceSlow      uint64
}

// NetCoalescing returns the mean envelopes per transport flush (the send
// syscalls saved by concurrent senders sharing a frame).
func (s SiteStats) NetCoalescing() float64 {
	if s.NetSendFlushes == 0 {
		return 0
	}
	return float64(s.NetSentEnvelopes) / float64(s.NetSendFlushes)
}

// NetBytesPerFlush returns the mean framed bytes per transport flush (how
// full each coalesced write is).
func (s SiteStats) NetBytesPerFlush() float64 {
	if s.NetSendFlushes == 0 {
		return 0
	}
	return float64(s.NetSentBytes) / float64(s.NetSendFlushes)
}

// ShardStat mirrors one storage shard's occupancy and traffic counters.
type ShardStat struct {
	Items    int
	Hits     uint64
	Installs uint64
}

// ShardSkew returns the coefficient of variation of per-shard lookup
// traffic (0 = perfectly uniform hashing; rising values flag hot shards).
func (s SiteStats) ShardSkew() float64 {
	if len(s.StoreShards) == 0 {
		return 0
	}
	mean := 0.0
	for _, sh := range s.StoreShards {
		mean += float64(sh.Hits)
	}
	mean /= float64(len(s.StoreShards))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, sh := range s.StoreShards {
		d := float64(sh.Hits) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(s.StoreShards))) / mean
}

// ShardOccupancy returns the min and max per-shard item counts.
func (s SiteStats) ShardOccupancy() (min, max int) {
	for i, sh := range s.StoreShards {
		if i == 0 || sh.Items < min {
			min = sh.Items
		}
		if sh.Items > max {
			max = sh.Items
		}
	}
	return min, max
}

// WALBatchSize returns the mean group-commit batch size (records per
// force-write cycle).
func (s SiteStats) WALBatchSize() float64 {
	if s.WALFlushes == 0 {
		return 0
	}
	return float64(s.WALRecords) / float64(s.WALFlushes)
}

// CommitRate returns committed / began.
func (s SiteStats) CommitRate() float64 {
	if s.Began == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Began)
}

// Throughput returns committed transactions per second over the window.
func (s SiteStats) Throughput() float64 {
	if s.WindowNS <= 0 {
		return 0
	}
	return float64(s.Committed) / (float64(s.WindowNS) / 1e9)
}

// Count names one of the Collector's plain counters. Each backs the
// SiteStats field of the same name through its row in Table.
type Count uint8

const (
	noCount Count = iota
	Began
	Committed
	RoundTrips
	AddWaves
	AddWaveReruns
	VotedLegs
	HomeForces
	VoteLostReruns
	HomeFirstWaves
	HomeFirstReruns
	numCounts
)

// Collector gathers one site's statistics. All methods are safe for
// concurrent use.
type Collector struct {
	site model.SiteID

	mu     sync.Mutex
	counts [numCounts]uint64
	aborts map[model.AbortCause]uint64
	lat    Histogram
	start  time.Time
}

// NewCollector builds a collector for site, starting its window now.
func NewCollector(site model.SiteID) *Collector {
	return &Collector{site: site, aborts: make(map[model.AbortCause]uint64), start: time.Now()}
}

// Add adds n to counter k.
func (c *Collector) Add(k Count, n uint64) {
	c.mu.Lock()
	c.counts[k] += n
	c.mu.Unlock()
}

// TxDone counts a finished transaction and its latency.
func (c *Collector) TxDone(committed bool, cause model.AbortCause, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if committed {
		c.counts[Committed]++
	} else {
		c.aborts[cause]++
	}
	c.lat.Observe(int64(latency))
}

// Snapshot returns the current counters; orphans is sampled by the caller
// (it lives in the ACP participant).
func (c *Collector) Snapshot(orphans int) SiteStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := SiteStats{
		Site:          c.site,
		AbortsByCause: make(map[string]uint64, len(c.aborts)),
		Orphans:       orphans,
		Latency:       c.lat,
		WindowNS:      int64(time.Since(c.start)),
	}
	v := reflect.ValueOf(&s).Elem()
	for _, row := range Table {
		if row.count != noCount {
			v.Field(row.index).SetUint(c.counts[row.count])
		}
	}
	for cause, n := range c.aborts {
		s.Aborted += n
		s.AbortsByCause[cause.String()] = n
	}
	return s
}

// Reset zeroes the counters and restarts the window.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts = [numCounts]uint64{}
	c.aborts = make(map[model.AbortCause]uint64)
	c.lat = Histogram{}
	c.start = time.Now()
}

// NetStats is the transport-level traffic summary (filled from
// simnet.Stats or tcpnet accounting).
type NetStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// Report is the cluster-wide statistics view: the data behind the paper's
// Figure-5 output panel.
type Report struct {
	Sites []SiteStats
	Net   NetStats
	// WindowNS is the maximum site window (the observation period).
	WindowNS int64
}

// Totals aggregates all site stats into one: every scalar row of Table by
// its merge rule, plus the abort causes and latency histograms.
func (r Report) Totals() SiteStats {
	out := SiteStats{Site: "TOTAL", AbortsByCause: make(map[string]uint64)}
	dst := reflect.ValueOf(&out).Elem()
	for i := range r.Sites {
		s := &r.Sites[i]
		src := reflect.ValueOf(s).Elem()
		for _, row := range Table {
			if row.write == nil {
				row.merge(dst.Field(row.index), src.Field(row.index))
			}
		}
		for k, v := range s.AbortsByCause {
			out.AbortsByCause[k] += v
		}
		out.Latency.Merge(s.Latency)
		for name, h := range s.Stages {
			if out.Stages == nil {
				out.Stages = make(map[string]Histogram)
			}
			merged := out.Stages[name]
			merged.Merge(h)
			out.Stages[name] = merged
		}
	}
	out.WindowNS = max(out.WindowNS, r.WindowNS)
	return out
}

// MessagesPerSecond returns delivered messages per second over the window.
func (r Report) MessagesPerSecond() float64 {
	w := r.Totals().WindowNS
	if w <= 0 {
		return 0
	}
	return float64(r.Net.Delivered) / (float64(w) / 1e9)
}

// LoadImbalance returns the coefficient of variation of per-site admitted
// transaction counts — the paper's "load balance/imbalance indicator".
// Zero means perfectly balanced.
func (r Report) LoadImbalance() float64 {
	if len(r.Sites) == 0 {
		return 0
	}
	mean := 0.0
	for _, s := range r.Sites {
		mean += float64(s.Began)
	}
	mean /= float64(len(r.Sites))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, s := range r.Sites {
		d := float64(s.Began) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(r.Sites))) / mean
}

// MessagesPerCommit returns delivered messages per committed transaction —
// the key series of the quorum-traffic experiment (E2).
func (r Report) MessagesPerCommit() float64 {
	t := r.Totals()
	if t.Committed == 0 {
		return 0
	}
	return float64(r.Net.Delivered) / float64(t.Committed)
}

// Render formats the report as the textual equivalent of the paper's
// transaction-processing output window (Figure 5).
func (r Report) Render() string {
	t := r.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "=== Rainbow Tx Processing Output ===\n")
	fmt.Fprintf(&b, "window: %v\n", time.Duration(t.WindowNS).Round(time.Millisecond))
	fmt.Fprintf(&b, "transactions: began=%d committed=%d aborted=%d\n",
		t.Began, t.Committed, t.Aborted)
	fmt.Fprintf(&b, "commit rate: %.3f\n", t.CommitRate())
	causes := make([]string, 0, len(t.AbortsByCause))
	for k := range t.AbortsByCause {
		causes = append(causes, k)
	}
	sort.Strings(causes)
	for _, k := range causes {
		n := t.AbortsByCause[k]
		rate := 0.0
		if t.Began > 0 {
			rate = float64(n) / float64(t.Began)
		}
		fmt.Fprintf(&b, "aborts[%s]: %d (rate %.3f)\n", k, n, rate)
	}
	fmt.Fprintf(&b, "throughput: %.1f tx/s\n", t.Throughput())
	fmt.Fprintf(&b, "response time: mean=%v p95=%v max=%v\n",
		t.Latency.Mean().Round(time.Microsecond),
		t.Latency.Quantile(0.95).Round(time.Microsecond),
		time.Duration(t.Latency.MaxNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "messages: sent=%d delivered=%d dropped=%d bytes=%d (%.1f msg/s, %.1f msg/commit)\n",
		r.Net.Sent, r.Net.Delivered, r.Net.Dropped, r.Net.Bytes,
		r.MessagesPerSecond(), r.MessagesPerCommit())
	fmt.Fprintf(&b, "round trips: %d\n", t.RoundTrips)
	fmt.Fprintf(&b, "orphan transactions: %d\n", t.Orphans)
	fmt.Fprintf(&b, "data plane: %d shards, wal %d records / %d flushes (%.1f recs/flush)\n",
		t.Shards, t.WALRecords, t.WALFlushes, t.WALBatchSize())
	if t.CCAdds > 0 || t.CCSplits > 0 {
		fmt.Fprintf(&b, "hot-key split: %d adds (%d lock-free), %d splits / %d drains, %d items split now\n",
			t.CCAdds, t.CCSplitAdds, t.CCSplits, t.CCDrains, t.SplitItems)
	}
	if t.AddWaves > 0 || t.VotedLegs > 0 {
		fmt.Fprintf(&b, "add waves: %d shipped at once, %d rerun in order, %d legs voted with their reply\n",
			t.AddWaves, t.AddWaveReruns, t.VotedLegs)
	}
	if t.HomeForces > 0 || t.VoteLostReruns > 0 {
		fmt.Fprintf(&b, "one-force commits: %d homes forced prepare with decision, %d waves rerun after a lost vote\n",
			t.HomeForces, t.VoteLostReruns)
	}
	if t.HomeFirstWaves > 0 {
		fmt.Fprintf(&b, "home-first waves: %d shipped the home's leg first, %d rerun in order\n",
			t.HomeFirstWaves, t.HomeFirstReruns)
	}
	if t.ReleasesAbandoned > 0 {
		fmt.Fprintf(&b, "releases abandoned to janitor: %d\n", t.ReleasesAbandoned)
	}
	if t.TailsUnacked > 0 {
		fmt.Fprintf(&b, "commit tails missing an ack: %d\n", t.TailsUnacked)
	}
	if t.NetSendFlushes > 0 {
		fmt.Fprintf(&b, "net coalescing: %d envelopes / %d flushes (%.1f env/flush, %.0f B/flush), %d frames in\n",
			t.NetSentEnvelopes, t.NetSendFlushes, t.NetCoalescing(), t.NetBytesPerFlush(),
			t.NetRecvFrames)
	}
	if len(t.Stages) > 0 {
		fmt.Fprintf(&b, "stages (count p50/p99/max):\n")
		names := make([]string, 0, len(t.Stages))
		for name := range t.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := t.Stages[name]
			fmt.Fprintf(&b, "  %-10s %8d  %v / %v / %v\n", name, h.Count,
				h.Quantile(0.50).Round(time.Microsecond),
				h.Quantile(0.99).Round(time.Microsecond),
				time.Duration(h.MaxNS).Round(time.Microsecond))
		}
	}
	if t.TraceSampled > 0 {
		fmt.Fprintf(&b, "traces: sampled=%d fragments=%d evicted=%d slow=%d\n",
			t.TraceSampled, t.TraceFragments, t.TraceEvicted, t.TraceSlow)
	}
	fmt.Fprintf(&b, "durability: %d checkpoints (%d deltas), %d segments compacted, wal %d segments / %d bytes retained\n",
		t.Checkpoints, t.CheckpointDeltas, t.SegmentsCompacted, t.WALSegments, t.WALBytes)
	fmt.Fprintf(&b, "checkpoint: horizon=%d gate-pause=%v dirty-shards=%d decisions=%d\n",
		t.CheckpointHorizon, time.Duration(t.CheckpointPauseNS).Round(time.Microsecond),
		t.DirtyShards, t.Decisions)
	fmt.Fprintf(&b, "recovery: replayed %d records in %v (last restart)\n",
		t.RecoveryRecords, time.Duration(t.RecoveryNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "catalog: epoch=%d, %d live reconfigurations\n", t.Epoch, t.Reconfigures)
	fmt.Fprintf(&b, "load imbalance (cv of admissions): %.3f\n", r.LoadImbalance())
	fmt.Fprintf(&b, "per-site:\n")
	for _, s := range r.Sites {
		fmt.Fprintf(&b, "  %-8s began=%-6d committed=%-6d aborted=%-5d orphans=%-3d mean=%v\n",
			s.Site, s.Began, s.Committed, s.Aborted, s.Orphans,
			s.Latency.Mean().Round(time.Microsecond))
		if len(s.StoreShards) > 0 {
			min, max := s.ShardOccupancy()
			fmt.Fprintf(&b, "           store shards: %d, occupancy %d-%d items, hit skew cv=%.3f\n",
				len(s.StoreShards), min, max, s.ShardSkew())
		}
	}
	return b.String()
}
