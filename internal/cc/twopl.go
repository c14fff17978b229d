package cc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/storage"
)

// TwoPL is strict two-phase locking: reads take shared locks, pre-writes
// take exclusive locks, and every lock is held until Commit or Abort. With
// the lock manager's waits-for-graph detection, local deadlocks abort the
// requester immediately; distributed deadlocks fall to the bound on the
// wait (the ctx given to Admit).
//
// The intent buffer is striped by item hash — the same placement math as
// the lock table and the store — so concurrent transactions touching
// different items never contend on a global mutex anywhere on the 2PL path.
//
// Hot-item split execution (Doppel-style) rides on top: blind adds normally
// take exclusive locks like writes, but an item whose adds keep failing the
// lock fast path is moved into a split slot — subsequent adds are admitted
// without any lock (deltas commute, so mutual exclusion buys nothing), and
// their deltas reconcile into the canonical copy through the ordinary
// commit path (WriteRecord.Delta). Reads and
// absolute writes of a split item first acquire their lock, then drain the
// slot — wait for every lock-free admission to commit or abort — restoring
// plain 2PL for the item until adds re-heat it. The splits map is guarded
// by one mutex, but only blind adds on split items, failed fast-path
// acquisitions, and split-item reads/writes ever touch it; the uncontended
// path is gated by a single atomic counter check.
type TwoPL struct {
	store *storage.Store
	locks *lock.Manager
	opts  Options

	intents []intentShard
	mask    uint32
	holders *holderTracker

	// splitMu guards splits, contended, and every splitSlot's fields. Lock
	// order: splitMu may be held when taking a lock-table shard mutex
	// (lock.Manager.Idle), never an intent-stripe mutex, and never the
	// reverse.
	splitMu   sync.Mutex
	splits    map[model.ItemID]*splitSlot
	contended map[model.ItemID]uint32
	// numSplit gates every split check on the non-add paths: when zero (the
	// common case for uniform workloads) reads and writes pay one atomic
	// load and nothing else.
	numSplit atomic.Int32

	// finished tombstones transactions that already committed or aborted
	// here, so late operations fail fast with ErrTxFinished instead of
	// acquiring locks (or burning a waiting retry's full wave budget) for
	// a transaction that can never prepare. Entries expire after
	// finishedTTL; the site-level release tombstones remain the durable
	// safety net behind this fast path.
	finished [holderShards]tombstones

	reads     atomic.Uint64
	preWrites atomic.Uint64
	adds      atomic.Uint64
	splitAdds atomic.Uint64
	splitCnt  atomic.Uint64
	drainCnt  atomic.Uint64
	addWaits  atomic.Uint64
	// waitTimeouts counts the waits of this manager's own that ctx ended
	// (add retries and split drains); lock waits count in the lock manager.
	waitTimeouts atomic.Uint64
}

// splitSlot tracks one split item's lock-free blind-add admissions. All
// fields are guarded by TwoPL.splitMu.
type splitSlot struct {
	// active holds the transactions with an admitted, not yet finished
	// blind-add intent on the item.
	active map[model.TxID]bool
	// draining is set by the first reader/writer that needs the item back
	// under locks; admissions stop and drained closes when active empties.
	draining bool
	closed   bool
	drained  chan struct{}
}

// wintent is one buffered write intent: the value (or delta), whether it is
// a commutative blind add, and — for adds admitted lock-free — the split
// slot that tracks it.
type wintent struct {
	value int64
	delta bool
	slot  *splitSlot
}

// intentShard is one stripe of the buffered write intents, keyed tx → item
// → intent. A transaction's intents spread over the stripes of the items it
// wrote.
type intentShard struct {
	mu      sync.Mutex
	intents map[model.TxID]map[model.ItemID]wintent
}

// NewTwoPL builds the 2PL manager over the site's store.
func NewTwoPL(store *storage.Store, opts Options) *TwoPL {
	n := shard.Normalize(opts.Shards, lock.MaxShards)
	if opts.SplitThreshold <= 0 {
		opts.SplitThreshold = DefaultSplitThreshold
	}
	m := &TwoPL{
		store: store,
		locks: lock.New(lock.Options{
			DisableDeadlockDetection: opts.DisableDeadlockDetection,
			Shards:                   opts.Shards,
			Tracer:                   opts.Tracer,
		}),
		opts:      opts,
		intents:   make([]intentShard, n),
		mask:      uint32(n - 1),
		holders:   newHolderTracker(),
		splits:    make(map[model.ItemID]*splitSlot),
		contended: make(map[model.ItemID]uint32),
	}
	for i := range m.intents {
		m.intents[i].intents = make(map[model.TxID]map[model.ItemID]wintent)
	}
	for i := range m.finished {
		m.finished[i].m = make(map[model.TxID]time.Time)
	}
	return m
}

func (m *TwoPL) stripeOf(item model.ItemID) *intentShard {
	return &m.intents[shard.Hash(item)&m.mask]
}

// Name implements Manager.
func (m *TwoPL) Name() string { return "2pl" }

// finishedTTL bounds how long a finished-transaction tombstone is kept: long
// enough to cover any operation already in flight when the transaction
// finished (a lock timeout plus slack), short enough that the maps stay
// small under churn.
func (m *TwoPL) finishedTTL() time.Duration { return 2 * m.opts.LockTimeout }

// tombstones is one stripe of the finished-transaction tombstones: when
// each transaction finished, and when the stripe is next purged of expired
// entries.
type tombstones struct {
	mu        sync.Mutex
	m         map[model.TxID]time.Time
	nextPurge time.Time
}

// finishedShardOf hashes tx onto a tombstone stripe (same spread as the
// holder tracker).
func (m *TwoPL) finishedShardOf(tx model.TxID) *tombstones {
	h := uint32(tx.Seq)
	for i := 0; i < len(tx.Site); i++ {
		h = h*31 + uint32(tx.Site[i])
	}
	return &m.finished[h%holderShards]
}

// markFinished tombstones a committed/aborted transaction. Each stripe is
// purged of expired entries at most once per finishedTTL, so a stripe holds
// at most two TTLs of churn and the scan is amortized over every
// transaction that finished in between.
func (m *TwoPL) markFinished(tx model.TxID) {
	sh := m.finishedShardOf(tx)
	now := time.Now()
	sh.mu.Lock()
	if !now.Before(sh.nextPurge) {
		ttl := m.finishedTTL()
		cutoff := now.Add(-ttl)
		for t, at := range sh.m {
			if at.Before(cutoff) {
				delete(sh.m, t)
			}
		}
		sh.nextPurge = now.Add(ttl)
	}
	sh.m[tx] = now
	sh.mu.Unlock()
}

// checkFinished returns ErrTxFinished if tx already committed or aborted
// here (within the tombstone TTL).
func (m *TwoPL) checkFinished(tx model.TxID) error {
	sh := m.finishedShardOf(tx)
	sh.mu.Lock()
	at, ok := sh.m[tx]
	sh.mu.Unlock()
	if ok && time.Since(at) < m.finishedTTL() {
		return ErrTxFinished
	}
	return nil
}

// isSplit reports whether item is currently split (callers gate on
// numSplit first so the uncontended path stays lock-free).
func (m *TwoPL) isSplit(item model.ItemID) bool {
	m.splitMu.Lock()
	_, ok := m.splits[item]
	m.splitMu.Unlock()
	return ok
}

// Admit implements Manager. Every operation of a finished transaction is
// refused. A read takes a shared lock and a pre-write an exclusive one,
// each draining a split item back to locking (lockItem); a blind add is
// admitted through the item's split slot where one is open, and otherwise
// takes an exclusive lock like a write (preAdd).
func (m *TwoPL) Admit(ctx context.Context, tx model.TxID, ts model.Timestamp, op model.Op, wait bool) (int64, model.Version, error) {
	if err := m.checkFinished(tx); err != nil {
		return 0, 0, err
	}
	switch {
	case op.Kind == model.OpRead:
		if err := m.lockItem(ctx, tx, op.Item, lock.Shared, wait); err != nil {
			return 0, 0, err
		}
		return m.finishRead(tx, op.Item)
	case op.Kind == model.OpAdd && !m.opts.NoSplit:
		ver, err := m.preAdd(ctx, tx, op.Item, op.Value, wait)
		return 0, ver, err
	case op.Kind == model.OpWrite || op.Kind == model.OpAdd:
		// With splitting disabled (the ablation baseline), adds behave
		// exactly like absolute writes.
		if err := m.lockItem(ctx, tx, op.Item, lock.Exclusive, wait); err != nil {
			return 0, 0, err
		}
		ver, err := m.finishPreWrite(tx, op.Item, wintent{value: op.Value, delta: op.Kind == model.OpAdd})
		return 0, ver, err
	}
	return 0, 0, errBadOp(op)
}

// lockItem takes tx's lock on item for a read or an absolute write, then
// returns a split item to plain locking (drainSplit) — a wait, so without
// wait a split item answers ErrWouldBlock, keeping the lock it was granted.
// The split check runs after the grant: a split created concurrently checked
// the lock table for idleness, so of the two racing sides one always
// observes the other (see splitItemLocked).
func (m *TwoPL) lockItem(ctx context.Context, tx model.TxID, item model.ItemID, mode lock.Mode, wait bool) error {
	if err := m.locks.Acquire(ctx, tx, item, mode, wait); err != nil {
		return err
	}
	m.holders.touch(tx)
	if m.numSplit.Load() == 0 || !m.isSplit(item) {
		return nil
	}
	if !wait {
		return ErrWouldBlock
	}
	return m.drainSplit(ctx, item)
}

// finishRead is the post-lock half of a read: fetch the copy and overlay
// the transaction's own buffered intent (read-your-writes).
func (m *TwoPL) finishRead(tx model.TxID, item model.ItemID) (int64, model.Version, error) {
	c, ok := m.store.Get(item)
	if !ok {
		return 0, 0, model.Abortf(model.AbortRCP, "no copy of %s at this site", item)
	}
	m.reads.Add(1)
	val := c.Value
	sh := m.stripeOf(item)
	sh.mu.Lock()
	if own, ok := sh.intents[tx][item]; ok {
		if own.delta {
			val = c.Value + own.value // own blind add folded into the copy
		} else {
			val = own.value // read-your-writes on the buffered intent
		}
	}
	sh.mu.Unlock()
	return val, c.Version, nil
}

// preAdd admits a commutative blind add. Split items admit lock-free;
// otherwise the add takes an exclusive lock like a write (and its
// contention feeds the split decision).
//
// A waiting add does NOT park in the lock queue: FIFO queue hand-off would
// keep a hot item's lock permanently non-idle, and the split — whose safety
// check needs an idle instant — could never form. Instead the add retries
// the no-wait admission with backoff until it is admitted (by grant or by
// split) or ctx ends. Spinning adds are invisible to the waits-for graph,
// so an add-add deadlock falls to the wait's bound; the exec layer's sorted
// acquisition keeps multi-item transactions out of that corner.
func (m *TwoPL) preAdd(ctx context.Context, tx model.TxID, item model.ItemID, delta int64, wait bool) (model.Version, error) {
	ver, err := m.tryAdd(tx, item, delta)
	if !wait || !errors.Is(err, ErrWouldBlock) {
		return ver, err
	}
	m.addWaits.Add(1)
	start := m.opts.waitStart()
	backoff := 50 * time.Microsecond
	for {
		select {
		case <-ctx.Done():
			m.waitTimeouts.Add(1)
			return 0, model.Abortf(model.AbortCC, "lock timeout: %s on %s(add)", tx, item)
		case <-time.After(backoff):
		}
		if backoff < 2*time.Millisecond {
			backoff *= 2
		}
		// The transaction may have finished while the add spun (a release
		// aborts it here): it must not be admitted after that.
		if err := m.checkFinished(tx); err != nil {
			return 0, err
		}
		ver, err := m.tryAdd(tx, item, delta)
		if !errors.Is(err, ErrWouldBlock) {
			if err == nil && !start.IsZero() {
				m.opts.observeWait(ctx, item, start)
			}
			return ver, err
		}
	}
}

// tryAdd is one no-wait admission attempt of a blind add. Unlike a write it
// may succeed under contention: the split path exists precisely so hot
// blind adds stop queueing.
func (m *TwoPL) tryAdd(tx model.TxID, item model.ItemID, delta int64) (model.Version, error) {
	// The hotness check runs BEFORE the lock attempt: an idle lock is the
	// only instant a split may form, and it is also exactly when the
	// no-wait Acquire would succeed — checked after the failure, the split
	// condition could never hold and the item would stay a convoy forever.
	// An already-hot item therefore splits (or admits through its open
	// slot) here, and only cold items fall through to the lock.
	m.splitMu.Lock()
	if slot := m.splits[item]; slot != nil {
		if slot.draining {
			m.splitMu.Unlock()
			return 0, ErrWouldBlock
		}
		ver, err := m.slotAdmitLocked(slot, tx, item, delta)
		m.splitMu.Unlock()
		return ver, err
	}
	if m.contended[item] >= uint32(m.opts.SplitThreshold) && m.locks.Idle(item) {
		m.splitItemLocked(item)
		ver, err := m.slotAdmitLocked(m.splits[item], tx, item, delta)
		m.splitMu.Unlock()
		return ver, err
	}
	m.splitMu.Unlock()
	if err := m.locks.Acquire(context.Background(), tx, item, lock.Exclusive, false); err == nil {
		m.holders.touch(tx)
		return m.finishPreWrite(tx, item, wintent{value: delta, delta: true})
	}
	// Contended: feed the split decision, so the retry splits the item the
	// moment the current holder releases.
	m.splitMu.Lock()
	if _, ok := m.splits[item]; !ok {
		m.contended[item]++
	}
	m.splitMu.Unlock()
	return 0, ErrWouldBlock
}

// splitItemLocked moves item into split execution. The caller holds splitMu
// and has verified the item's lock is idle: the idle check and the map
// publication happen atomically under splitMu, and every reader/writer
// re-checks the splits map after its lock grant, so whichever side wins the
// race the other observes it.
func (m *TwoPL) splitItemLocked(item model.ItemID) {
	m.splits[item] = &splitSlot{
		active:  make(map[model.TxID]bool),
		drained: make(chan struct{}),
	}
	delete(m.contended, item)
	m.numSplit.Add(1)
	m.splitCnt.Add(1)
}

// slotAdmitLocked records a lock-free blind-add admission. The caller holds
// splitMu and has checked the slot is open.
func (m *TwoPL) slotAdmitLocked(slot *splitSlot, tx model.TxID, item model.ItemID, delta int64) (model.Version, error) {
	c, ok := m.store.Get(item)
	if !ok {
		return 0, model.Abortf(model.AbortRCP, "no copy of %s at this site", item)
	}
	slot.active[tx] = true
	m.bufferIntent(tx, item, wintent{value: delta, delta: true, slot: slot})
	m.holders.touch(tx)
	m.adds.Add(1)
	m.splitAdds.Add(1)
	m.preWrites.Add(1)
	return c.Version, nil
}

// drainSplit returns item to plain locking: stop admissions, wait for every
// lock-free add already admitted to commit or abort, then drop the slot.
// The caller has already acquired its own lock on the item, so new adds
// queue behind it while the drain waits. Bounded by ctx (the wave's wait
// budget): an add stuck in a slow commit protocol must not wedge readers
// forever.
func (m *TwoPL) drainSplit(ctx context.Context, item model.ItemID) error {
	m.splitMu.Lock()
	slot := m.splits[item]
	if slot == nil {
		m.splitMu.Unlock()
		return nil
	}
	if !slot.draining {
		slot.draining = true
		if len(slot.active) == 0 && !slot.closed {
			slot.closed = true
			close(slot.drained)
		}
	}
	m.splitMu.Unlock()

	select {
	case <-slot.drained:
	case <-ctx.Done():
		m.waitTimeouts.Add(1)
		return model.Abortf(model.AbortCC, "timeout draining split item %s", item)
	}

	m.splitMu.Lock()
	if m.splits[item] == slot {
		delete(m.splits, item)
		delete(m.contended, item)
		m.numSplit.Add(-1)
		m.drainCnt.Add(1)
	}
	m.splitMu.Unlock()
	return nil
}

// finishPreWrite is the post-lock half of a pre-write or pre-add: buffer the
// intent and report the copy's current version.
func (m *TwoPL) finishPreWrite(tx model.TxID, item model.ItemID, in wintent) (model.Version, error) {
	c, ok := m.store.Get(item)
	if !ok {
		return 0, model.Abortf(model.AbortRCP, "no copy of %s at this site", item)
	}
	m.bufferIntent(tx, item, in)
	m.preWrites.Add(1)
	if in.delta {
		m.adds.Add(1)
	}
	return c.Version, nil
}

// bufferIntent records (or merges) one write intent. Repeated blind adds of
// the same item accumulate their deltas; an absolute write replaces any
// earlier intent.
func (m *TwoPL) bufferIntent(tx model.TxID, item model.ItemID, in wintent) {
	sh := m.stripeOf(item)
	sh.mu.Lock()
	if sh.intents[tx] == nil {
		sh.intents[tx] = make(map[model.ItemID]wintent)
	}
	if prev, ok := sh.intents[tx][item]; ok && prev.delta && in.delta {
		in.value += prev.value
		if in.slot == nil {
			in.slot = prev.slot
		}
	}
	sh.intents[tx][item] = in
	sh.mu.Unlock()
}

// releaseSlots removes tx from the split slots of its lock-free add
// admissions, waking drains waiting on the last one.
func (m *TwoPL) releaseSlots(slots []*splitSlot, tx model.TxID) {
	if len(slots) == 0 {
		return
	}
	m.splitMu.Lock()
	for _, slot := range slots {
		delete(slot.active, tx)
		if slot.draining && len(slot.active) == 0 && !slot.closed {
			slot.closed = true
			close(slot.drained)
		}
	}
	m.splitMu.Unlock()
}

// clearIntents discards tx's buffered intents across all stripes (the
// abort path, which has no write set to narrow the sweep), returning any
// split slots the intents were admitted through.
func (m *TwoPL) clearIntents(tx model.TxID) []*splitSlot {
	var slots []*splitSlot
	for i := range m.intents {
		sh := &m.intents[i]
		sh.mu.Lock()
		for _, in := range sh.intents[tx] {
			if in.slot != nil {
				slots = append(slots, in.slot)
			}
		}
		delete(sh.intents, tx)
		sh.mu.Unlock()
	}
	return slots
}

// Commit implements Manager: install the final records, then release locks
// (strict 2PL order: writes visible before any lock is released). Intents
// are buffered only for pre-written items, and every pre-written item at
// this site is in the commit's write set, so only the written items'
// stripes need sweeping (deduplicated via a stripe bitmask — stripe count
// is capped at lock.MaxShards = 64).
func (m *TwoPL) Commit(tx model.TxID, writes []model.WriteRecord) error {
	err := m.store.Apply(writes)
	var slots []*splitSlot
	if len(writes) == 0 {
		slots = m.clearIntents(tx)
	} else {
		var mask uint64
		for _, w := range writes {
			mask |= 1 << (shard.Hash(w.Item) & m.mask)
		}
		for i := range m.intents {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			sh := &m.intents[i]
			sh.mu.Lock()
			for _, in := range sh.intents[tx] {
				if in.slot != nil {
					slots = append(slots, in.slot)
				}
			}
			delete(sh.intents, tx)
			sh.mu.Unlock()
		}
	}
	m.releaseSlots(slots, tx)
	m.locks.ReleaseAll(tx)
	m.holders.drop(tx)
	m.markFinished(tx)
	return err
}

// Abort implements Manager.
func (m *TwoPL) Abort(tx model.TxID) {
	m.releaseSlots(m.clearIntents(tx), tx)
	m.locks.ReleaseAll(tx)
	m.holders.drop(tx)
	m.markFinished(tx)
}

// Holders implements Manager.
func (m *TwoPL) Holders(age time.Duration) []model.TxID {
	return m.holders.holders(age)
}

// HoldsIntents implements Manager.
func (m *TwoPL) HoldsIntents(tx model.TxID, items []model.ItemID) bool {
	for _, item := range items {
		sh := m.stripeOf(item)
		sh.mu.Lock()
		_, ok := sh.intents[tx][item]
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// Reinstate implements Manager: re-protect an in-doubt transaction during
// recovery, before the site admits new work. Absolute records re-acquire
// their exclusive locks. Delta records rejoin the item's split slot, opened
// for them if need be: several in-doubt adds of one item can only have been
// admitted lock-free together, and an exclusive lock per add would make the
// second one's reinstatement wait for the first's decision — which recovery
// cannot reach. A reader or writer of the item drains the slot first, so it
// still waits for every in-doubt add. (With splitting disabled, adds took
// exclusive locks, so at most one add per item can be in doubt.)
//
// The lock acquisitions are bounded by LockTimeout together.
func (m *TwoPL) Reinstate(tx model.TxID, ts model.Timestamp, writes []model.WriteRecord) error {
	ctx := context.Background()
	if m.opts.LockTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.LockTimeout)
		defer cancel()
	}
	for _, w := range writes {
		if w.Delta && !m.opts.NoSplit && m.reinstateSplit(tx, w) {
			continue
		}
		if err := m.locks.Acquire(ctx, tx, w.Item, lock.Exclusive, true); err != nil {
			return err
		}
	}
	m.holders.touch(tx)
	return nil
}

// reinstateSplit re-admits an in-doubt delta record through its item's split
// slot, splitting the item if its lock is idle. It reports false when the
// item's lock is held (by a reinstated absolute write, which no add can have
// been admitted beside), leaving the record to the lock path.
func (m *TwoPL) reinstateSplit(tx model.TxID, w model.WriteRecord) bool {
	m.splitMu.Lock()
	defer m.splitMu.Unlock()
	slot := m.splits[w.Item]
	if slot == nil {
		if !m.locks.Idle(w.Item) {
			return false
		}
		m.splitItemLocked(w.Item)
		slot = m.splits[w.Item]
	}
	slot.active[tx] = true
	m.bufferIntent(tx, w.Item, wintent{value: w.Value, delta: true, slot: slot})
	return true
}

// SplitItems reports how many items are currently in split execution.
func (m *TwoPL) SplitItems() int {
	return int(m.numSplit.Load())
}

// Stats implements Manager, merging lock-manager counters.
func (m *TwoPL) Stats() Stats {
	s := Stats{
		Reads:     m.reads.Load(),
		PreWrites: m.preWrites.Load(),
		Adds:      m.adds.Load(),
		SplitAdds: m.splitAdds.Load(),
		Splits:    m.splitCnt.Load(),
		Drains:    m.drainCnt.Load(),
	}
	ls := m.locks.Stats()
	s.Waits = ls.Waits + m.addWaits.Load()
	s.Deadlocks = ls.Deadlocks
	s.Timeouts = ls.Timeouts + m.waitTimeouts.Load()
	return s
}
