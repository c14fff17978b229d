package monitor

import (
	"io"
	"reflect"
)

// Kind says how a statistic behaves. A counter only grows within a window,
// so a statistics reset zeroes it; a gauge reads current state, which a
// reset leaves alone; a histogram is a latency distribution its owner
// resets.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// Merge says how Report.Totals folds a scalar row across sites.
type Merge uint8

const (
	MergeSum Merge = iota
	MergeMax
)

// Row is one statistic: which SiteStats field holds it and how every
// surface treats it.
type Row struct {
	// Field names the SiteStats field. A row with its own writer may name
	// a composite field (map, histogram, slice) or, for an instance-wide
	// family, none.
	Field string
	// Metric is the /metrics family, "" when the row is not exported.
	Metric string
	Kind   Kind
	Help   string
	Merge  Merge
	// Scale divides the value for /metrics (1e9 turns ns into seconds);
	// zero means 1.
	Scale float64

	count Count                                    // the Collector counter behind Field, if any
	write func(w io.Writer, name string, r Report) // the family's samples, for a non-scalar row
	index int                                      // Field's index in SiteStats
}

// Table is the one list of site statistics. Report.Totals merges its
// scalar rows, WriteMetrics writes its families in this order, and
// SiteStats.Sub window-scopes its counters. A row with a writer renders a
// family that is not one sample per site of a scalar field (labelled
// counters, histograms, instance-wide values); every other row is a scalar
// field.
var Table = []Row{
	{Field: "Began", Metric: "rainbow_tx_began_total", Help: "Transactions admitted at this home site.", count: Began},
	{Field: "Committed", Metric: "rainbow_tx_committed_total", Help: "Transactions committed.", count: Committed},
	{Field: "Aborted", Metric: "rainbow_tx_aborted_total", Help: "Transactions aborted."},
	{Field: "RoundTrips", Metric: "rainbow_round_trips_total", Help: "Request/response exchanges the site initiated.", count: RoundTrips},
	{Field: "WindowNS", Metric: "rainbow_window_seconds", Kind: KindGauge, Merge: MergeMax, Scale: 1e9, Help: "Observation window covered by the site's counters."},
	{Field: "AbortsByCause", Metric: "rainbow_tx_aborts_by_cause_total", Help: "Aborts keyed by cause.", write: writeAbortsByCause},
	{Field: "Orphans", Metric: "rainbow_orphans", Kind: KindGauge, Help: "In-doubt (blocked) transactions right now."},
	{Field: "WALFlushes", Metric: "rainbow_wal_flushes_total", Help: "WAL force-write cycles."},
	{Field: "WALRecords", Metric: "rainbow_wal_records_total", Help: "WAL records forced."},
	{Field: "WALSegments", Kind: KindGauge},
	{Field: "WALBytes", Metric: "rainbow_wal_retained_bytes", Kind: KindGauge, Help: "Retained WAL volume."},
	{Field: "Checkpoints", Metric: "rainbow_checkpoints_total", Help: "Completed checkpoints."},
	{Field: "CheckpointDeltas"},
	{Field: "SegmentsCompacted"},
	{Field: "CheckpointHorizon", Kind: KindGauge, Merge: MergeMax},
	{Field: "CheckpointPauseNS", Kind: KindGauge, Merge: MergeMax},
	{Field: "DirtyShards", Kind: KindGauge},
	{Field: "Decisions", Kind: KindGauge},
	{Field: "RecoveryRecords", Kind: KindGauge},
	{Field: "RecoveryNS", Metric: "rainbow_recovery_seconds", Kind: KindGauge, Merge: MergeMax, Scale: 1e9, Help: "Duration of the site's last restart replay."},
	{Field: "Epoch", Metric: "rainbow_catalog_epoch", Kind: KindGauge, Merge: MergeMax, Help: "Catalog epoch the site currently runs."},
	{Field: "Reconfigures"},
	{Field: "Shards", Metric: "rainbow_shards", Kind: KindGauge, Merge: MergeMax, Help: "Data-plane shard count (storage shards and lock stripes)."},
	{Field: "StoreShards", Metric: "rainbow_store_shards", Kind: KindGauge, Help: "Sharded-store shard count reporting occupancy.", write: writeStoreShards},
	{Field: "PipeSubmitted", Metric: "rainbow_pipeline_submitted_total", Help: "Copy waves served."},
	{Field: "PipeBatches"},
	{Field: "PipeSpills", Metric: "rainbow_pipeline_spills_total", Help: "Copy waves whose admission waited in a blocking CC call."},
	{Field: "CCAdds", Metric: "rainbow_cc_adds_total", Help: "Blind-add intents admitted."},
	{Field: "CCSplitAdds", Metric: "rainbow_cc_split_adds_total", Help: "Adds admitted lock-free through a split slot."},
	{Field: "CCSplits", Metric: "rainbow_cc_splits_total", Help: "Hot items moved into split execution."},
	{Field: "CCDrains", Metric: "rainbow_cc_drains_total", Help: "Split items drained back to locking."},
	{Field: "SplitItems", Metric: "rainbow_cc_split_items", Kind: KindGauge, Help: "Items in split execution right now."},
	{Field: "CCReads", Metric: "rainbow_cc_reads_total", Help: "Copy reads admitted by concurrency control."},
	{Field: "CCPreWrites", Metric: "rainbow_cc_pre_writes_total", Help: "Copy pre-writes admitted by concurrency control."},
	{Field: "CCRejections", Metric: "rainbow_cc_rejections_total", Help: "Operations rejected by timestamp order (TSO, MVTSO)."},
	{Field: "CCDeadlocks", Metric: "rainbow_cc_deadlocks_total", Help: "Lock requests aborted as deadlock victims (2PL)."},
	{Field: "CCTimeouts", Metric: "rainbow_cc_timeouts_total", Help: "Lock or intent waits that timed out."},
	{Field: "CCWaits", Metric: "rainbow_cc_waits_total", Help: "Operations that waited for a lock or intent."},
	{Field: "AddWaves", Metric: "rainbow_add_waves_total", Help: "Add-only waves shipped with every leg at once, without waiting (2PC).", count: AddWaves},
	{Field: "AddWaveReruns", Metric: "rainbow_add_wave_reruns_total", Help: "Add-only waves a no-wait leg refused, rerun as ordered waves.", count: AddWaveReruns},
	{Field: "VotedLegs", Metric: "rainbow_voted_legs_total", Help: "Copy-operation legs that voted with their reply: add-only waves' remote legs and read-write waves' last legs (2PC).", count: VotedLegs},
	{Field: "HomeForces", Metric: "rainbow_home_forces_total", Help: "Commits whose home forced its prepared record with the decision, in one force (2PC).", count: HomeForces},
	{Field: "VoteLostReruns", Metric: "rainbow_vote_lost_reruns_total", Help: "One-shot programs rerun because a voting leg got no reply.", count: VoteLostReruns},
	{Field: "HomeFirstWaves", Metric: "rainbow_home_first_waves_total", Help: "Waves that ran the home's leg first, because it would sort last, and shipped every remote leg after it without waiting (2PC).", count: HomeFirstWaves},
	{Field: "HomeFirstReruns", Metric: "rainbow_home_first_reruns_total", Help: "Home-first waves a no-wait leg refused, rerun as ordered waves.", count: HomeFirstReruns},
	{Field: "ReleasesAbandoned", Metric: "rainbow_releases_abandoned_total", Help: "Release-retry loops that gave up and left cleanup to the janitor."},
	{Field: "TailsUnacked", Metric: "rainbow_commit_tails_unacked_total", Help: "Commit tails that ended without every ack; their decisions wait in the table for a decision request."},
	{Field: "NetSentEnvelopes", Metric: "rainbow_net_sent_envelopes_total", Help: "Envelopes the TCP transport wrote (0 on the simulated network)."},
	{Field: "NetSendFlushes", Metric: "rainbow_net_send_flushes_total", Help: "Frames the TCP transport wrote, one send syscall each (0 on the simulated network)."},
	{Field: "NetRecvEnvelopes", Metric: "rainbow_net_recv_envelopes_total", Help: "Envelopes the TCP transport decoded from incoming frames (0 on the simulated network)."},
	{Field: "NetRecvFrames", Metric: "rainbow_net_recv_frames_total", Help: "Multi-envelope frames the TCP transport decoded (0 on the simulated network)."},
	{Field: "NetSentBytes", Metric: "rainbow_net_sent_bytes_total", Help: "Bytes written by the TCP transport (0 on the simulated network)."},
	{Field: "TraceSampled", Metric: "rainbow_trace_sampled_total", Help: "Transactions sampled for tracing."},
	{Field: "TraceFragments", Metric: "rainbow_trace_fragments_total", Help: "Completed trace fragments retained."},
	{Field: "TraceEvicted", Metric: "rainbow_trace_evicted_total", Help: "Trace fragments evicted from the bounded ring."},
	{Field: "TraceSlow", Metric: "rainbow_trace_slow_total", Help: "Root traces over the slow threshold."},
	{Field: "Latency", Metric: "rainbow_tx_latency_seconds", Kind: KindHistogram, Help: "End-to-end transaction response time.", write: writeLatency},
	{Field: "Stages", Metric: "rainbow_stage_latency_seconds", Kind: KindHistogram, Help: "Per-stage latency (admit, lock_wait, wal_fsync, prepare, ...).", write: writeStages},
	{Metric: "rainbow_net_messages_total", Help: "Network-level message counters (whole instance).", write: writeNetMessages},
	{Metric: "rainbow_net_bytes_total", Help: "Network payload bytes.", write: writeNetBytes},
}

func init() {
	t := reflect.TypeOf(SiteStats{})
	for i := range Table {
		row := &Table[i]
		if f, ok := t.FieldByName(row.Field); ok {
			row.index = f.Index[0]
		} else if row.write == nil {
			panic("monitor: stats row names no SiteStats field: " + row.Field)
		}
	}
}

// merge folds src into dst by the row's merge rule.
func (row Row) merge(dst, src reflect.Value) {
	if dst.CanInt() {
		if row.Merge == MergeMax {
			dst.SetInt(max(dst.Int(), src.Int()))
		} else {
			dst.SetInt(dst.Int() + src.Int())
		}
		return
	}
	if row.Merge == MergeMax {
		dst.SetUint(max(dst.Uint(), src.Uint()))
	} else {
		dst.SetUint(dst.Uint() + src.Uint())
	}
}

// Sub returns s with every counter row measured from base, the snapshot a
// statistics reset took: the counts since that reset. A counter whose
// source restarted below its base reads 0. Gauges and composite fields
// are s's own.
func (s SiteStats) Sub(base SiteStats) SiteStats {
	cur, b := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&base).Elem()
	for _, row := range Table {
		if row.Kind == KindCounter && row.write == nil {
			f := cur.Field(row.index)
			f.SetUint(f.Uint() - min(f.Uint(), b.Field(row.index).Uint()))
		}
	}
	return s
}
