// Package cc implements Rainbow's concurrency control protocols (CCPs).
// Each Rainbow site runs one Manager guarding its local copies: every
// remote read, pre-write or pre-add sent by a replication control protocol
// passes through it (paper §2.1: "copies are read ... or pre-written ...
// through CCP"), admitted by one call, Manager.Admit.
//
// Three managers are provided, selectable by name from the catalog:
//
//   - "2pl"   — strict two-phase locking over internal/lock
//   - "tso"   — basic timestamp ordering with strict pre-write intents
//   - "mvtso" — multi-version timestamp ordering (the paper's suggested
//     term-project extension)
//
// A Manager validates and buffers operations; writes become durable and
// visible only when the atomic commit protocol calls Commit with the final
// write records (which carry coordinator-assigned install versions). No
// manager bounds a wait by itself: a wait ends when the ctx given to Admit
// does, so the caller's one timer bounds it.
package cc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Manager is the per-site CCP interface.
type Manager interface {
	// Name returns the protocol name ("2pl", "tso", "mvtso").
	Name() string

	// Admit admits one copy operation of tx — a read, a pre-write or a
	// pre-add (op.Kind) of op.Item — and returns what it reports: a read's
	// value and version, or the copy's current version for a pre-write or
	// pre-add (the QC coordinator derives the install version from the
	// quorum maximum). A written value or added delta is buffered as an
	// intent, not applied; a blind add's delta is merged into the copy at
	// commit and never observed, so a manager may admit concurrent adds of
	// one item without mutual exclusion (2PL's hot-item split execution).
	// A refusal is an abort with cause CC (or RCP for a copy this site does
	// not hold).
	//
	// Where the operation must wait (a 2PL lock queue, a split item's drain,
	// a pending TSO/MVTSO intent), Admit without wait answers ErrWouldBlock
	// and admits nothing; with wait it parks until it can proceed or ctx
	// ends, which aborts it with cause CC and counts a timeout. ctx is the
	// only bound on the wait. A would-block answer may leave a 2PL lock
	// granted on the way behind (a read or write of a split item takes its
	// lock before it finds the split): the same transaction's waiting retry
	// re-acquires it as a no-op, and Abort releases it otherwise.
	Admit(ctx context.Context, tx model.TxID, ts model.Timestamp, op model.Op, wait bool) (int64, model.Version, error)

	// Commit installs the transaction's write records into the store and
	// releases all CC state held for tx.
	Commit(tx model.TxID, writes []model.WriteRecord) error

	// Abort discards tx's intents and releases all CC state.
	Abort(tx model.TxID)

	// Reinstate re-protects the write set of an in-doubt transaction during
	// crash recovery, before the site serves new traffic.
	Reinstate(tx model.TxID, ts model.Timestamp, writes []model.WriteRecord) error

	// HoldsIntents reports whether the manager currently buffers a
	// pre-write intent from tx for every listed item. Prepare-time
	// validation: a crash recovery or live reconfiguration between
	// pre-write and prepare discards intents (and their protection), and
	// preparing such a transaction could serialize two conflicting writers
	// onto the same install version — the site votes no instead.
	HoldsIntents(tx model.TxID, items []model.ItemID) bool

	// Holders lists transactions that have held CC state here (locks,
	// buffered intents) for longer than age without being committed or
	// aborted. The site's CC janitor feeds it: state stranded by a home
	// site's real process death (the in-process release retries die with
	// the process) is found by its own age, and the holder's home is
	// presumed-abort-queried to free it.
	Holders(age time.Duration) []model.TxID

	// Stats reports CC event counters for the progress monitor.
	Stats() Stats
}

// Stats counts CC events.
type Stats struct {
	Reads      uint64
	PreWrites  uint64
	Rejections uint64 // timestamp rejections (TSO/MVTSO)
	Deadlocks  uint64 // 2PL only
	Timeouts   uint64 // waits their ctx ended (lock, intent, add-retry, split-drain)
	Waits      uint64
	Adds       uint64 // blind-add intents admitted (all managers)
	SplitAdds  uint64 // adds admitted lock-free through a split slot (2PL)
	Splits     uint64 // hot items moved into split execution (2PL)
	Drains     uint64 // split items drained back to locking (2PL)
}

// Add adds o's counters into s. A site carries its managers' totals across
// stack rebuilds this way, since every rebuild builds a fresh manager.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.PreWrites += o.PreWrites
	s.Rejections += o.Rejections
	s.Deadlocks += o.Deadlocks
	s.Timeouts += o.Timeouts
	s.Waits += o.Waits
	s.Adds += o.Adds
	s.SplitAdds += o.SplitAdds
	s.Splits += o.Splits
	s.Drains += o.Drains
}

// Options configures manager construction.
type Options struct {
	// LockTimeout sets how long 2PL remembers a finished transaction and
	// bounds 2PL's recovery (Reinstate) lock acquisitions; Admit's waits are
	// bounded by its ctx alone. Zero means DefaultLockTimeout.
	LockTimeout time.Duration
	// DisableDeadlockDetection leaves 2PL deadlocks to timeouts.
	DisableDeadlockDetection bool
	// Shards stripes the 2PL lock table; <= 0 selects the
	// GOMAXPROCS-derived default (matches the storage shard knob).
	Shards int
	// Tracer, when set, receives lock/intent wait durations (the always-on
	// lock_wait stage histogram) and attaches wait spans to sampled
	// transactions; only actual waits pay for it.
	Tracer *trace.Tracer
	// NoSplit disables 2PL's hot-item split execution: blind adds then take
	// exclusive locks exactly like absolute writes (the cc_no_split /
	// -hot-split=false ablation baseline).
	NoSplit bool
	// SplitThreshold is the number of contended blind-add admissions an item
	// must accumulate before 2PL splits it; <= 0 selects
	// DefaultSplitThreshold.
	SplitThreshold int
}

// DefaultLockTimeout is the default LockTimeout. Sites bound each copy
// wave's waits by the same length, which doubles as the distributed-deadlock
// safety net.
const DefaultLockTimeout = 2 * time.Second

// ErrWouldBlock is Admit's answer without wait where the operation would
// have to wait. It is not an abort: nothing was admitted, and the operation
// may be retried with wait. It is the lock manager's sentinel, so one value
// answers would-block at both layers.
var ErrWouldBlock = lock.ErrWouldBlock

// ErrTxFinished is returned (wrapped in an AbortCC) for operations arriving
// on behalf of a transaction this manager already committed or aborted.
// Unlike ErrWouldBlock it is terminal: retrying with wait can never succeed
// (transaction ids are never reused), so a wave's admission must refuse the
// operation instead of waiting out a full wave budget.
var ErrTxFinished = &model.AbortError{Cause: model.AbortCC, Reason: "transaction already finished at this site"}

// DefaultSplitThreshold is the contended-add count at which 2PL moves an
// item into split execution.
const DefaultSplitThreshold = 8

// errBadOp refuses an operation of no known kind.
func errBadOp(op model.Op) error { return fmt.Errorf("invalid op kind %d", op.Kind) }

// awaitIntents parks a TSO or MVTSO admission until ch closes (the item's
// intents changed) or ctx ends. mu, held by the caller, is released for the
// wait and held again on return. It reports whether the intents changed; a
// wait that ctx ends counts as a timeout. Every wait is recorded as a
// lock_wait (observeWait).
func awaitIntents(ctx context.Context, mu *sync.Mutex, st *Stats, o Options, ch <-chan struct{}, item model.ItemID) bool {
	st.Waits++
	mu.Unlock()
	start := o.waitStart()
	changed := false
	select {
	case <-ch:
		changed = true
	case <-ctx.Done():
	}
	o.observeWait(ctx, item, start)
	mu.Lock()
	if !changed {
		st.Timeouts++
	}
	return changed
}

// waitStart stamps the beginning of an intent-gate wait when a tracer is
// attached (zero otherwise, so the fast path never reads the clock).
func (o Options) waitStart() time.Time {
	if o.Tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeWait records one completed intent-gate wait: the always-on
// lock_wait histogram plus a span on the transaction's sampled trace, if
// any. No-op when no tracer is attached.
func (o Options) observeWait(ctx context.Context, item model.ItemID, start time.Time) {
	if o.Tracer == nil {
		return
	}
	d := time.Since(start)
	o.Tracer.Observe(trace.StageLockWait, d)
	trace.FromContext(ctx).Record(trace.StageLockWait, start, d, string(item))
}

// New constructs a manager by protocol name over the site's store.
func New(name string, store *storage.Store, opts Options) (Manager, error) {
	if opts.LockTimeout == 0 {
		opts.LockTimeout = DefaultLockTimeout
	}
	switch name {
	case "2pl", "2PL", "":
		return NewTwoPL(store, opts), nil
	case "tso", "TSO":
		return NewTSO(store, opts), nil
	case "mvtso", "MVTSO":
		return NewMVTSO(store, opts), nil
	default:
		return nil, fmt.Errorf("cc: unknown concurrency control protocol %q", name)
	}
}

// Names lists the available CCP names.
func Names() []string { return []string{"2pl", "tso", "mvtso"} }
