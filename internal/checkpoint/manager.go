package checkpoint

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Policy configures when checkpoints fire and how snapshots are captured.
type Policy struct {
	// Bytes triggers a checkpoint once this many WAL bytes have been
	// appended since the last one; 0 disables the bytes trigger.
	Bytes int64
	// Interval triggers periodic checkpoints; 0 disables the timer.
	Interval time.Duration
	// Retain is how many snapshots to keep; values < 2 select 2 (the
	// previous snapshot is the fallback when the newest turns out torn, so
	// compaction never outruns it).
	Retain int
	// DeltaMax bounds the consecutive delta snapshots taken before a full
	// snapshot is forced; 0 or negative disables incremental checkpoints
	// entirely (every snapshot is full — the pre-delta behavior). The first
	// checkpoint of a manager's lifetime is always full, so a catalog
	// change (which rebuilds the manager) restarts the chain.
	DeltaMax int
	// NoCOW disables copy-on-write shard capture: the captured shards are
	// copied while the snapshot gate is held, stalling the decision
	// pipeline for the O(data) copy instead of the O(shards) seal — the
	// pre-COW behavior, kept as an ablation knob for
	// BenchmarkCheckpointPause.
	NoCOW bool
}

// Enabled reports whether any automatic trigger is configured. Manual
// checkpoints work regardless.
func (p Policy) Enabled() bool { return p.Bytes > 0 || p.Interval > 0 }

func (p Policy) retain() int {
	if p.Retain < 2 {
		return 2
	}
	return p.Retain
}

// Stats is a snapshot of the manager's counters for the progress monitor.
type Stats struct {
	// Checkpoints counts completed checkpoints; Deltas counts how many of
	// them were delta snapshots; Failures counts attempts that errored
	// (snapshot write or log append).
	Checkpoints uint64
	Deltas      uint64
	Failures    uint64
	// SegmentsCompacted counts WAL segments deleted by compaction.
	SegmentsCompacted uint64
	// LastHorizon is the horizon of the newest completed checkpoint.
	LastHorizon uint64
	// LastDuration is the wall time of the newest completed checkpoint.
	LastDuration time.Duration
	// LastPause is how long the newest checkpoint held the snapshot gate —
	// the decision-pipeline stall. Under copy-on-write capture this is the
	// O(shards) seal flip; with Policy.NoCOW it includes the O(data) copy.
	LastPause time.Duration
	// LastDirtyShards and LastItems describe the newest snapshot's capture:
	// how many shards were dirty and how many copies the snapshot carries.
	LastDirtyShards int
	LastItems       int
}

// Manager drives fuzzy checkpoints of one site's store: snapshot under the
// gate, persist atomically, pin the horizon with a WAL checkpoint record,
// prune old snapshots, compact the log. One Manager per site incarnation;
// it is rebuilt (over the surviving snapshot store and log) on recovery.
type Manager struct {
	store     *storage.Store
	log       wal.Compactable
	snaps     Store
	decisions func() map[model.TxID]bool
	pol       Policy

	// gate serializes fuzzy snapshots against the decision pipeline: every
	// decision force-write + install runs under RLock, the snapshot step
	// under Lock. See the package comment. The pointer may be replaced by
	// ShareGate with an externally owned lock (the site shares one gate
	// across manager incarnations so online reconfiguration can quiesce the
	// pipeline with the same write lock a snapshot uses).
	gate *sync.RWMutex

	// ckptMu serializes whole checkpoints (a manual trigger racing the
	// background loop).
	ckptMu sync.Mutex

	mu        sync.Mutex
	st        Stats
	lastBytes uint64
	lastAt    time.Time
	// lastEpoch is the store-capture epoch of the last successful snapshot:
	// the next delta captures exactly the shards dirtied at or after it
	// (0 — nothing captured yet — makes the first capture full).
	lastEpoch uint64
	// lastFull is the horizon of the chain's full snapshot and
	// deltasSinceFull the chain length so far; a delta's Prev pointer is
	// simply st.LastHorizon (the manager is the only snapshot writer).
	lastFull        uint64
	deltasSinceFull int
}

// NewManager builds a manager. decisions supplies the participant's
// decision table (may be nil when the site has none, e.g. in unit tests).
func NewManager(store *storage.Store, log wal.Compactable, snaps Store, decisions func() map[model.TxID]bool, pol Policy) *Manager {
	return &Manager{
		store:     store,
		log:       log,
		snaps:     snaps,
		decisions: decisions,
		pol:       pol,
		gate:      new(sync.RWMutex),
		lastBytes: log.AppendedBytes(),
		lastAt:    time.Now(),
	}
}

// ShareGate replaces the manager's private snapshot interlock with an
// externally owned one. A site owns one gate for its whole lifetime and
// hands it to every manager incarnation (the manager is rebuilt on recovery
// and reconfiguration) as well as to its decision pipeline; online catalog
// reconfiguration then quiesces decisions by write-locking that same gate
// across the stack rebuild. Call before the manager serves checkpoints.
func (m *Manager) ShareGate(g *sync.RWMutex) { m.gate = g }

// Gate returns the snapshot interlock; the site's decision pipeline holds
// it in read mode around each decision's force-write + install.
func (m *Manager) Gate() *sync.RWMutex { return m.gate }

// Stats returns the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// Checkpoint takes one checkpoint now (the manual trigger and the
// background loop both land here). A checkpoint with nothing new to capture
// (no records since the last horizon) is a no-op.
//
// The snapshot gate is held only for the copy-on-write shard seal (plus the
// decision-table copy), so the decision pipeline stalls for O(shards), not
// O(data); the captured shards are collected and persisted after the gate
// drops. A chain that has reached Policy.DeltaMax deltas — or a manager
// whose epoch bookkeeping holds nothing yet (first checkpoint, recovery
// rebuild) — writes a full snapshot; otherwise a delta carrying only the
// dirty shards, chained to the previous snapshot via Prev/Base.
func (m *Manager) Checkpoint() error { return m.checkpoint(false) }

// CheckpointFull takes one full (whole-store, chain-restarting) snapshot
// now, regardless of the delta chain's position — the reconfigure-reason
// checkpoint. Online reconfiguration forces one immediately before
// rebuilding the protocol stack so the rebuild restores from a single
// self-contained image at the current horizon and only redoes records
// appended after it; unlike Checkpoint it never takes the idle shortcut,
// because the caller is about to rely on the snapshot it asked for.
func (m *Manager) CheckpointFull() error { return m.checkpoint(true) }

func (m *Manager) checkpoint(forceFull bool) error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	start := time.Now()
	m.mu.Lock()
	lastHorizon := m.st.LastHorizon
	lastEpoch, lastFull, deltas := m.lastEpoch, m.lastFull, m.deltasSinceFull
	m.mu.Unlock()

	full := forceFull || m.pol.DeltaMax <= 0 || lastFull == 0 || deltas >= m.pol.DeltaMax
	since := lastEpoch
	if full {
		since = 0
	}

	m.gate.Lock()
	gateStart := time.Now()
	horizon := m.log.DurableLSN() + 1
	// Nothing but the previous checkpoint's own pin record (at LSN
	// lastHorizon) has been appended: a new snapshot would capture nothing.
	// Refresh the trigger baselines so an idle site stops re-taking the
	// gate every poll tick, but still retry pruning/compaction — a previous
	// checkpoint may have snapshotted successfully and then failed there,
	// and a manual trigger on an idle site must be able to reclaim space.
	if !forceFull && horizon <= lastHorizon+1 {
		m.gate.Unlock()
		m.mu.Lock()
		m.lastBytes = m.log.AppendedBytes()
		m.lastAt = time.Now()
		m.mu.Unlock()
		return m.pruneAndCompact()
	}
	capture := m.store.BeginCapture(since)
	var items map[model.ItemID]storage.Copy
	if m.pol.NoCOW {
		items = capture.Collect() // the O(data) copy under the gate
	}
	var decs map[model.TxID]bool
	if m.decisions != nil {
		decs = m.decisions()
	}
	pause := time.Since(gateStart)
	m.gate.Unlock()
	if items == nil {
		items = capture.Collect()
	}

	snap := &Snapshot{Horizon: horizon, Items: items, Decisions: decisionList(decs)}
	if !full {
		snap.Base, snap.Prev = lastFull, lastHorizon
	}
	// Failures past this point leave lastEpoch untouched, so shards dirty
	// before the failed capture still satisfy dirtyEpoch >= lastEpoch and
	// are re-captured by the retry — nothing is lost to a failed attempt.
	if err := m.snaps.Save(snap); err != nil {
		m.fail()
		return err
	}
	// Pin the horizon in the log itself; recovery trusts the snapshot
	// store, but the record documents the checkpoint in the record stream
	// and is forced before any compaction may rely on it.
	if err := m.log.Append(wal.Record{Type: wal.RecCheckpoint, Horizon: horizon}); err != nil {
		m.fail()
		return fmt.Errorf("checkpoint: pin record: %w", err)
	}
	// The checkpoint itself is durable from here on: count it and advance
	// the trigger baselines even if pruning/compaction below goes wrong
	// (those failures are counted separately so the monitor surfaces them).
	m.mu.Lock()
	m.st.Checkpoints++
	m.st.LastHorizon = horizon
	m.st.LastDuration = time.Since(start)
	m.st.LastPause = pause
	m.st.LastDirtyShards = capture.Dirty
	m.st.LastItems = len(items)
	m.lastEpoch = capture.Epoch
	if full {
		m.lastFull, m.deltasSinceFull = horizon, 0
	} else {
		m.st.Deltas++
		m.deltasSinceFull++
	}
	m.lastBytes = m.log.AppendedBytes()
	m.lastAt = time.Now()
	m.mu.Unlock()

	return m.pruneAndCompact()
}

// PendingDirty reports how many store shards have been dirtied since the
// last successful capture — the size of the next delta, a durability gauge.
func (m *Manager) PendingDirty() int {
	m.mu.Lock()
	since := m.lastEpoch
	m.mu.Unlock()
	return m.store.DirtyShards(since)
}

// pruneAndCompact trims the snapshot store to the retention count and
// compacts the log below the SECOND-newest retained snapshot's horizon: if
// the newest file is later found torn, recovery falls back to the previous
// snapshot — whose redo records must still exist.
func (m *Manager) pruneAndCompact() error {
	if err := m.snaps.Prune(m.pol.retain()); err != nil {
		m.fail()
		return err
	}
	horizons, err := m.snaps.Horizons()
	if err != nil {
		m.fail()
		return err
	}
	var compactH uint64
	if len(horizons) >= 2 {
		compactH = horizons[len(horizons)-2]
	}
	removed, err := m.log.Compact(compactH)
	if err != nil {
		m.fail()
		return err
	}
	m.mu.Lock()
	m.st.SegmentsCompacted += uint64(removed)
	m.mu.Unlock()
	return nil
}

func (m *Manager) fail() {
	m.mu.Lock()
	m.st.Failures++
	m.mu.Unlock()
}

// decisionList flattens the decision table deterministically.
func decisionList(decs map[model.TxID]bool) []Decision {
	if len(decs) == 0 {
		return nil
	}
	out := make([]Decision, 0, len(decs))
	for tx, commit := range decs {
		out = append(out, Decision{Tx: tx, Commit: commit})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tx.Site != out[j].Tx.Site {
			return out[i].Tx.Site < out[j].Tx.Site
		}
		return out[i].Tx.Seq < out[j].Tx.Seq
	})
	return out
}

// Run drives the automatic triggers until ctx is cancelled. It returns
// immediately when no trigger is configured.
func (m *Manager) Run(ctx context.Context) {
	if !m.pol.Enabled() {
		return
	}
	poll := 250 * time.Millisecond
	if m.pol.Interval > 0 && m.pol.Interval < poll {
		poll = m.pol.Interval
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if m.due() {
				m.Checkpoint() //nolint:errcheck // counted in Stats.Failures
			}
		}
	}
}

// due evaluates the byte and interval triggers.
func (m *Manager) due() bool {
	m.mu.Lock()
	lastBytes, lastAt := m.lastBytes, m.lastAt
	m.mu.Unlock()
	if m.pol.Bytes > 0 && m.log.AppendedBytes()-lastBytes >= uint64(m.pol.Bytes) {
		return true
	}
	return m.pol.Interval > 0 && time.Since(lastAt) >= m.pol.Interval
}
