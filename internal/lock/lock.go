// Package lock implements the lock manager used by Rainbow's two-phase
// locking CCP: shared/exclusive item locks with FIFO queuing, lock
// upgrades, waits-for-graph deadlock detection, and wait timeouts.
//
// The lock table is striped: items hash to a fixed power-of-two array of
// shards, each with its own mutex, item map and per-transaction held set,
// so requests for unrelated items never serialize on a global lock. A
// striped registry records which shards each transaction touches, and
// ReleaseAll walks exactly those shards in index order (one at a time),
// which keeps the manager internally deadlock-free.
//
// The waits-for graph deliberately stays global, behind its own mutex: a
// deadlock cycle routinely spans items in different shards (T1 holds x in
// shard 0 and waits for y in shard 3 held by T2, which waits for x), so a
// per-shard graph could never close a cross-shard cycle. The lock order is
// always shard mutex → waits mutex. Each blocked request runs its cycle
// check and publishes its edges in a single waits-mutex critical section,
// so of two requests that come to block on each other — even in different
// shards — the later one always sees the earlier one's edges and detects
// the cycle; striping loses no local detection.
//
// Deadlock handling follows the classic local scheme: each blocked request
// adds waits-for edges from the requester to every conflicting holder and
// to conflicting waiters queued ahead of it; a cycle through the new edges
// aborts the requester immediately (the requester is the victim). A wait is
// bounded only by the caller's ctx: that bound is the safety net for
// distributed deadlocks that no single site can see.
package lock

import (
	"context"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/trace"
)

// ErrWouldBlock is returned by a no-wait Acquire where a waiting one would
// queue. The request leaves no lock state behind: no grant, no waiter, no
// waits-for edge. It is also the CC managers' would-block answer
// (cc.ErrWouldBlock is this value).
var ErrWouldBlock = errors.New("would block")

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String renders "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Options configures a Manager.
type Options struct {
	// DisableDeadlockDetection turns off waits-for cycle checking (leaving
	// only the callers' wait bounds), which lets classroom experiments
	// observe undetected deadlocks.
	DisableDeadlockDetection bool
	// Shards is the lock-table stripe count, rounded up to a power of two
	// and capped at MaxShards; <= 0 selects a GOMAXPROCS-derived default.
	Shards int
	// Tracer, when set, receives the duration of every actual lock wait
	// (the always-on lock_wait histogram) and attaches wait spans to
	// sampled transactions. Only the slow path pays for it: a fast-path
	// grant never touches the clock.
	Tracer *trace.Tracer
}

// MaxShards bounds the stripe count; it also lets a transaction's
// touched-shard set fit one uint64 bitmask (stripes beyond the core count
// buy nothing anyway).
const MaxShards = 64

// txStripes is the stripe count of the touched-shard registry.
const txStripes = 64

// Stats counts lock-manager events for the progress monitor.
type Stats struct {
	Grants    uint64
	Waits     uint64
	Deadlocks uint64
	Timeouts  uint64
	Upgrades  uint64
}

// lockShard is one stripe of the lock table.
type lockShard struct {
	mu    sync.Mutex
	items map[model.ItemID]*itemLock
	// held tracks, per transaction, the items it locks in this shard (for
	// ReleaseAll). Each item appears once: grants append it, and an
	// upgrade replaces the mode in the item's holder entry without
	// re-appending.
	held map[model.TxID][]model.ItemID
	// waiting tracks the items on which a transaction currently has a
	// queued waiter, so ReleaseAll scans only those queues instead of every
	// item in the shard.
	waiting map[model.TxID]map[model.ItemID]bool
}

// Manager is a per-site lock manager. All methods are safe for concurrent
// use.
type Manager struct {
	opts   Options
	shards []*lockShard
	mask   uint32

	// waitsMu guards the global waits-for graph. Lock order: a shard mutex
	// may be held when taking waitsMu, never the reverse.
	waitsMu sync.Mutex
	waits   map[model.TxID]map[model.TxID]bool

	// txMu/txShards stripe a registry of which shards each transaction has
	// touched (a bitmask), so ReleaseAll visits only those shards instead
	// of walking the whole table. Keyed by the transaction's sequence
	// number, which spreads uniformly.
	txMu     [txStripes]sync.Mutex
	txShards [txStripes]map[model.TxID]uint64

	grants    atomic.Uint64
	waitCount atomic.Uint64
	deadlocks atomic.Uint64
	timeouts  atomic.Uint64
	upgrades  atomic.Uint64
}

type itemLock struct {
	holders map[model.TxID]Mode
	queue   []*waiter
}

type waiter struct {
	tx      model.TxID
	mode    Mode
	upgrade bool
	ready   chan error // buffered(1); receives nil on grant
}

// New returns a lock manager with the given options.
func New(opts Options) *Manager {
	n := shard.Normalize(opts.Shards, MaxShards)
	m := &Manager{
		opts:   opts,
		shards: make([]*lockShard, n),
		mask:   uint32(n - 1),
		waits:  make(map[model.TxID]map[model.TxID]bool),
	}
	for i := range m.shards {
		m.shards[i] = &lockShard{
			items:   make(map[model.ItemID]*itemLock),
			held:    make(map[model.TxID][]model.ItemID),
			waiting: make(map[model.TxID]map[model.ItemID]bool),
		}
	}
	for i := range m.txShards {
		m.txShards[i] = make(map[model.TxID]uint64)
	}
	return m
}

// markTouched records that tx has used shard idx; ReleaseAll later consumes
// (and clears) the mask.
func (m *Manager) markTouched(tx model.TxID, idx int) {
	s := int(tx.Seq % txStripes)
	bit := uint64(1) << uint(idx)
	m.txMu[s].Lock()
	if m.txShards[s][tx]&bit == 0 {
		m.txShards[s][tx] |= bit
	}
	m.txMu[s].Unlock()
}

// takeTouched returns and clears tx's touched-shard mask.
func (m *Manager) takeTouched(tx model.TxID) uint64 {
	s := int(tx.Seq % txStripes)
	m.txMu[s].Lock()
	mask := m.txShards[s][tx]
	delete(m.txShards[s], tx)
	m.txMu[s].Unlock()
	return mask
}

// ShardCount returns the lock-table stripe count.
func (m *Manager) ShardCount() int { return len(m.shards) }

func (m *Manager) shardIndexOf(item model.ItemID) int {
	return int(shard.Hash(item) & m.mask)
}

func (m *Manager) shardOf(item model.ItemID) *lockShard {
	return m.shards[m.shardIndexOf(item)]
}

// Stats snapshots the event counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Grants:    m.grants.Load(),
		Waits:     m.waitCount.Load(),
		Deadlocks: m.deadlocks.Load(),
		Timeouts:  m.timeouts.Load(),
		Upgrades:  m.upgrades.Load(),
	}
}

// Idle reports whether item currently has no holders and no queued waiters.
// The 2PL hot-item split machinery uses it as the safety check before moving
// an item into lock-free blind-add admission: a split created while any
// transaction holds (or waits for) the item's lock could commute a delta
// past an absolute writer's exclusion or a reader's repeatability.
func (m *Manager) Idle(item model.ItemID) bool {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	il := sh.items[item]
	return il == nil || (len(il.holders) == 0 && len(il.queue) == 0)
}

// Holding returns the mode tx holds on item (0 if none).
func (m *Manager) Holding(tx model.TxID, item model.ItemID) Mode {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	il := sh.items[item]
	if il == nil {
		return 0
	}
	return il.holders[tx]
}

// Acquire obtains item in the given mode for tx. Re-acquiring an equal or
// weaker mode is a no-op; Shared→Exclusive upgrades are supported. A request
// that conflicts with the holders or with a queued waiter answers
// ErrWouldBlock without wait, leaving no trace. With wait it queues until it
// is granted, deadlock-aborted, or ctx is done — the only bound on the wait,
// so the caller's ctx is the one timer a wait arms. The ending of ctx aborts
// the request with cause CC and counts as a timeout.
func (m *Manager) Acquire(ctx context.Context, tx model.TxID, item model.ItemID, mode Mode, wait bool) error {
	idx := m.shardIndexOf(item)
	sh := m.shards[idx]
	sh.mu.Lock()
	il := sh.items[item]
	if il == nil {
		il = &itemLock{holders: make(map[model.TxID]Mode)}
		sh.items[item] = il
	}

	cur := il.holders[tx]
	if cur >= mode {
		sh.mu.Unlock()
		return nil // already held strongly enough
	}
	upgrade := cur == Shared && mode == Exclusive
	// A new request is granted only if it is compatible with the holders
	// AND does not jump queued conflicting waiters (FIFO fairness).
	grantable := holdersCompatible(il, tx, mode, upgrade) && !queueConflicts(il, tx, mode)
	if !grantable && !wait {
		sh.mu.Unlock()
		return ErrWouldBlock
	}
	// Mark before any grant or queue entry exists, so ReleaseAll can never
	// miss this shard. Re-acquires returned above without marking: their
	// original grant already set the bit.
	m.markTouched(tx, idx)
	if grantable {
		m.grantLocked(sh, item, il, tx, mode, upgrade)
		sh.mu.Unlock()
		return nil
	}

	// Must wait: build waits-for edges to everything blocking us. The
	// deadlock check and the edge publication happen in one waitsMu
	// critical section, while the shard is still locked, so a concurrent
	// grant in this shard cannot clear edges before they exist.
	w := &waiter{tx: tx, mode: mode, upgrade: upgrade, ready: make(chan error, 1)}
	blockers := blockers(il, tx, mode, upgrade)
	m.waitsMu.Lock()
	if !m.opts.DisableDeadlockDetection && m.wouldDeadlockLocked(tx, blockers) {
		m.waitsMu.Unlock()
		m.deadlocks.Add(1)
		sh.mu.Unlock()
		return model.Abortf(model.AbortCC, "deadlock: %s waiting for %s(%s)", tx, item, mode)
	}
	for _, b := range blockers {
		if m.waits[tx] == nil {
			m.waits[tx] = make(map[model.TxID]bool)
		}
		m.waits[tx][b] = true
	}
	m.waitsMu.Unlock()
	il.queue = append(il.queue, w)
	if sh.waiting[tx] == nil {
		sh.waiting[tx] = make(map[model.ItemID]bool)
	}
	sh.waiting[tx][item] = true
	m.waitCount.Add(1)
	sh.mu.Unlock()

	// Wait accounting is slow-path-only: the clock reads and the histogram
	// insert amortize against parking a goroutine.
	if m.opts.Tracer != nil {
		waitStart := time.Now()
		defer func() {
			d := time.Since(waitStart)
			m.opts.Tracer.Observe(trace.StageLockWait, d)
			trace.FromContext(ctx).Record(trace.StageLockWait, waitStart, d, string(item))
		}()
	}

	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
		sh.mu.Lock()
		select {
		case err := <-w.ready:
			// Granted just as we timed out: accept the grant; the caller
			// still owns the lock and will release it with the transaction.
			sh.mu.Unlock()
			return err
		default:
		}
		removeWaiter(il, w)
		clearWaiting(sh, tx, item)
		m.clearEdges(tx)
		m.timeouts.Add(1)
		m.grantWaitersLocked(sh, item, il)
		sh.mu.Unlock()
		return model.Abortf(model.AbortCC, "lock timeout: %s on %s(%s)", tx, item, mode)
	}
}

// ReleaseAll drops every lock tx holds and removes it from all wait queues,
// then grants newly compatible waiters. Called at commit/abort (strict 2PL).
// Only the shards tx actually touched are visited, one at a time in index
// order, so the walk can never deadlock with concurrent acquisitions.
func (m *Manager) ReleaseAll(tx model.TxID) {
	mask := m.takeTouched(tx)
	for mask != 0 {
		idx := bits.TrailingZeros64(mask)
		mask &^= uint64(1) << uint(idx)
		sh := m.shards[idx]
		sh.mu.Lock()
		for _, item := range sh.held[tx] {
			il := sh.items[item]
			if il == nil {
				continue
			}
			delete(il.holders, tx)
			m.grantWaitersLocked(sh, item, il)
		}
		delete(sh.held, tx)
		// Remove tx from the queues it is waiting in (an aborting tx may
		// still be queued); the waiting index names exactly those items.
		for item := range sh.waiting[tx] {
			il := sh.items[item]
			if il == nil {
				continue
			}
			changed := false
			for i := 0; i < len(il.queue); {
				if il.queue[i].tx == tx {
					il.queue[i].ready <- model.Abortf(model.AbortCC, "transaction released while waiting")
					il.queue = append(il.queue[:i], il.queue[i+1:]...)
					changed = true
				} else {
					i++
				}
			}
			if changed {
				m.grantWaitersLocked(sh, item, il)
			}
		}
		delete(sh.waiting, tx)
		sh.mu.Unlock()
	}
	m.waitsMu.Lock()
	delete(m.waits, tx)
	// Other transactions' edges pointing at tx are now stale; drop them.
	for _, es := range m.waits {
		delete(es, tx)
	}
	m.waitsMu.Unlock()
}

// holdersCompatible reports whether mode is compatible with the current
// holder set (ignoring tx's own holding, which an upgrade replaces).
func holdersCompatible(il *itemLock, tx model.TxID, mode Mode, upgrade bool) bool {
	if upgrade {
		// Upgrade is grantable only when tx is the sole holder.
		if len(il.holders) != 1 {
			return false
		}
		_, sole := il.holders[tx]
		return sole
	}
	for h, hm := range il.holders {
		if h == tx {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// queueConflicts reports whether a conflicting waiter is already queued
// (FIFO fairness for new requests only — waiters being granted from the
// head of the queue are never blocked by waiters behind them).
func queueConflicts(il *itemLock, tx model.TxID, mode Mode) bool {
	for _, q := range il.queue {
		if q.tx == tx {
			continue
		}
		if mode == Exclusive || q.mode == Exclusive {
			return true
		}
	}
	return false
}

// blockers lists the transactions tx would wait for on item.
func blockers(il *itemLock, tx model.TxID, mode Mode, upgrade bool) []model.TxID {
	var out []model.TxID
	for h, hm := range il.holders {
		if h == tx {
			continue
		}
		if upgrade || mode == Exclusive || hm == Exclusive {
			out = append(out, h)
		}
	}
	for _, q := range il.queue {
		if q.tx == tx {
			continue
		}
		if mode == Exclusive || q.mode == Exclusive {
			out = append(out, q.tx)
		}
	}
	return out
}

// grantLocked records a grant; the caller holds sh.mu.
func (m *Manager) grantLocked(sh *lockShard, item model.ItemID, il *itemLock, tx model.TxID, mode Mode, upgrade bool) {
	il.holders[tx] = mode
	if !upgrade {
		sh.held[tx] = append(sh.held[tx], item)
	}
	m.grants.Add(1)
	if upgrade {
		m.upgrades.Add(1)
	}
}

// grantWaitersLocked grants queued waiters that became compatible, in FIFO
// order, batching consecutive compatible shared requests. The caller holds
// sh.mu.
func (m *Manager) grantWaitersLocked(sh *lockShard, item model.ItemID, il *itemLock) {
	for len(il.queue) > 0 {
		w := il.queue[0]
		if !holdersCompatible(il, w.tx, w.mode, w.upgrade) {
			return
		}
		il.queue = il.queue[1:]
		clearWaiting(sh, w.tx, item)
		m.grantLocked(sh, item, il, w.tx, w.mode, w.upgrade)
		m.clearEdges(w.tx)
		w.ready <- nil
	}
}

// clearWaiting drops item from tx's waiting index; the caller holds sh.mu.
func clearWaiting(sh *lockShard, tx model.TxID, item model.ItemID) {
	if ws := sh.waiting[tx]; ws != nil {
		delete(ws, item)
		if len(ws) == 0 {
			delete(sh.waiting, tx)
		}
	}
}

func removeWaiter(il *itemLock, w *waiter) {
	for i, q := range il.queue {
		if q == w {
			il.queue = append(il.queue[:i], il.queue[i+1:]...)
			return
		}
	}
}

func (m *Manager) clearEdges(tx model.TxID) {
	m.waitsMu.Lock()
	delete(m.waits, tx)
	m.waitsMu.Unlock()
}

// wouldDeadlockLocked reports whether adding edges tx→blockers closes a
// cycle in the waits-for graph (DFS from each blocker looking for tx). The
// caller holds waitsMu.
func (m *Manager) wouldDeadlockLocked(tx model.TxID, blockers []model.TxID) bool {
	seen := make(map[model.TxID]bool)
	var dfs func(model.TxID) bool
	dfs = func(cur model.TxID) bool {
		if cur == tx {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for next := range m.waits[cur] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	for _, b := range blockers {
		if dfs(b) {
			return true
		}
	}
	return false
}
