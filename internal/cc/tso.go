package cc

import (
	"context"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// TSO is basic timestamp ordering with strict pre-write intents (Bernstein
// et al.'s TO scheduler made strict so the ACP can always commit admitted
// transactions):
//
//   - a read at ts is rejected if ts < wts(item); otherwise, if a pending
//     pre-write intent with a smaller timestamp exists, the read waits for
//     it to resolve (it may need that writer's value); otherwise it reads
//     and advances rts.
//   - a pre-write (or pre-add) at ts waits out any other transaction's
//     pending intent on the item, and is then rejected if ts < rts(item)
//     or ts < wts(item); otherwise an intent is buffered.
//
// Rejections abort with cause CC; the transaction restarts with a fresh
// (larger) timestamp at the workload layer if configured.
type TSO struct {
	store *storage.Store
	opts  Options

	mu    sync.Mutex
	items map[model.ItemID]*tsoItem
	byTx  map[model.TxID]map[model.ItemID]bool
	// holders records when each transaction first buffered an intent,
	// feeding Holders (the CC janitor's age scan).
	holders *holderTracker
	stats   Stats
}

type tsoItem struct {
	rts, wts model.Timestamp
	intents  map[model.TxID]tsoIntent
	changed  chan struct{}
}

type tsoIntent struct {
	ts    model.Timestamp
	value int64
	// delta marks a commutative blind-add intent: value is merged into the
	// copy at commit instead of replacing it. TSO/MVTSO gain no concurrency
	// from commutativity (intents still serialize per copy — the hot-item
	// split machinery is 2PL's); the flag only rides through to the commit
	// record so the semantics match across CCPs.
	delta bool
}

// mergeTSOIntent buffers in, summing repeated delta intents from the same
// transaction (a transaction may blind-add the same item more than once);
// any other repeat overwrites, as before.
func mergeTSOIntent(intents map[model.TxID]tsoIntent, tx model.TxID, in tsoIntent) {
	if old, ok := intents[tx]; ok && old.delta && in.delta {
		in.value += old.value
	}
	intents[tx] = in
}

// NewTSO builds the TSO manager over the site's store.
func NewTSO(store *storage.Store, opts Options) *TSO {
	return &TSO{
		store:   store,
		opts:    opts,
		items:   make(map[model.ItemID]*tsoItem),
		byTx:    make(map[model.TxID]map[model.ItemID]bool),
		holders: newHolderTracker(),
	}
}

// Name implements Manager.
func (m *TSO) Name() string { return "tso" }

func (m *TSO) item(id model.ItemID) *tsoItem {
	it := m.items[id]
	if it == nil {
		it = &tsoItem{intents: make(map[model.TxID]tsoIntent), changed: make(chan struct{})}
		m.items[id] = it
	}
	return it
}

// minForeignIntent returns the smallest intent timestamp on it not owned by
// tx, and whether one exists.
func minForeignIntent(it *tsoItem, tx model.TxID) (model.Timestamp, bool) {
	var min model.Timestamp
	found := false
	for owner, in := range it.intents {
		if owner == tx {
			continue
		}
		if !found || in.ts.Less(min) {
			min = in.ts
			found = true
		}
	}
	return min, found
}

// Admit implements Manager.
func (m *TSO) Admit(ctx context.Context, tx model.TxID, ts model.Timestamp, op model.Op, wait bool) (int64, model.Version, error) {
	switch op.Kind {
	case model.OpRead:
		return m.read(ctx, tx, ts, op.Item, wait)
	case model.OpWrite, model.OpAdd:
		ver, err := m.preWrite(ctx, tx, ts, op.Item, op.Value, op.Kind == model.OpAdd, wait)
		return 0, ver, err
	}
	return 0, 0, errBadOp(op)
}

// read serves a read at ts, or rejects it if a later write committed.
// Strictness: while a smaller-timestamped foreign pre-write is pending, the
// read waits for it to resolve (it may need that writer's value).
func (m *TSO) read(ctx context.Context, tx model.TxID, ts model.Timestamp, item model.ItemID, wait bool) (int64, model.Version, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	it := m.item(item)
	for {
		if own, ok := it.intents[tx]; ok {
			// Read-your-writes on the buffered intent.
			c, _ := m.store.Get(item)
			val := own.value
			if own.delta {
				val += c.Value // delta intents merge, not replace
			}
			m.stats.Reads++
			return val, c.Version, nil
		}
		if ts.Less(it.wts) {
			m.stats.Rejections++
			return 0, 0, model.Abortf(model.AbortCC, "tso: read of %s at %s rejected, wts=%s", item, ts, it.wts)
		}
		if min, ok := minForeignIntent(it, tx); !ok || !min.Less(ts) {
			break
		}
		if !wait {
			return 0, 0, ErrWouldBlock
		}
		if !awaitIntents(ctx, &m.mu, &m.stats, m.opts, it.changed, item) {
			return 0, 0, model.Abortf(model.AbortCC, "tso: read of %s at %s timed out waiting on pre-write intent", item, ts)
		}
	}
	if it.rts.Less(ts) {
		it.rts = ts
	}
	c, ok := m.store.Get(item)
	if !ok {
		return 0, 0, model.Abortf(model.AbortRCP, "no copy of %s at this site", item)
	}
	m.stats.Reads++
	return c.Value, c.Version, nil
}

// preWrite buffers a write intent (a delta-flagged one for a blind add,
// which TSO serializes per copy exactly like an absolute write), or rejects
// it if a later read or write got there first. Conflicting pre-writes are
// serialized per copy: a pre-write waits until no other transaction's
// intent is pending on the item. This is what makes the version numbers
// handed to the quorum coordinator unique — with two concurrent buffered
// intents both would see the same base version, the coordinator would
// assign colliding install versions, and one write would be silently lost
// at shared copies.
func (m *TSO) preWrite(ctx context.Context, tx model.TxID, ts model.Timestamp, item model.ItemID, value int64, delta, wait bool) (model.Version, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	it := m.item(item)
	for {
		if _, foreign := minForeignIntent(it, tx); !foreign {
			break
		}
		if !wait {
			return 0, ErrWouldBlock
		}
		if !awaitIntents(ctx, &m.mu, &m.stats, m.opts, it.changed, item) {
			return 0, model.Abortf(model.AbortCC, "tso: pre-write of %s at %s timed out on pending intent", item, ts)
		}
	}
	if ts.Less(it.rts) || ts.Less(it.wts) {
		m.stats.Rejections++
		return 0, model.Abortf(model.AbortCC, "tso: pre-write of %s at %s rejected, rts=%s wts=%s", item, ts, it.rts, it.wts)
	}
	mergeTSOIntent(it.intents, tx, tsoIntent{ts: ts, value: value, delta: delta})
	if m.byTx[tx] == nil {
		m.byTx[tx] = make(map[model.ItemID]bool)
	}
	m.byTx[tx][item] = true
	m.holders.touch(tx)
	c, ok := m.store.Get(item)
	if !ok {
		delete(it.intents, tx)
		delete(m.byTx[tx], item)
		return 0, model.Abortf(model.AbortRCP, "no copy of %s at this site", item)
	}
	m.stats.PreWrites++
	if delta {
		m.stats.Adds++
	}
	return c.Version, nil
}

// Commit implements Manager: install the final records, advance wts, and
// resolve intents.
func (m *TSO) Commit(tx model.TxID, writes []model.WriteRecord) error {
	err := m.store.Apply(writes)
	m.mu.Lock()
	defer m.mu.Unlock()
	for item := range m.byTx[tx] {
		it := m.item(item)
		if in, ok := it.intents[tx]; ok {
			if it.wts.Less(in.ts) {
				it.wts = in.ts
			}
			delete(it.intents, tx)
			close(it.changed)
			it.changed = make(chan struct{})
		}
	}
	delete(m.byTx, tx)
	m.holders.drop(tx)
	return err
}

// Abort implements Manager.
func (m *TSO) Abort(tx model.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for item := range m.byTx[tx] {
		it := m.item(item)
		if _, ok := it.intents[tx]; ok {
			delete(it.intents, tx)
			close(it.changed)
			it.changed = make(chan struct{})
		}
	}
	delete(m.byTx, tx)
	m.holders.drop(tx)
}

// Holders implements Manager.
func (m *TSO) Holders(age time.Duration) []model.TxID {
	return m.holders.holders(age)
}

// HoldsIntents implements Manager.
func (m *TSO) HoldsIntents(tx model.TxID, items []model.ItemID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	owned := m.byTx[tx]
	for _, item := range items {
		if !owned[item] {
			return false
		}
	}
	return true
}

// Reinstate implements Manager: reinstall pre-write intents for an in-doubt
// transaction found during recovery.
func (m *TSO) Reinstate(tx model.TxID, ts model.Timestamp, writes []model.WriteRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range writes {
		it := m.item(w.Item)
		it.intents[tx] = tsoIntent{ts: ts, value: w.Value, delta: w.Delta}
		if m.byTx[tx] == nil {
			m.byTx[tx] = make(map[model.ItemID]bool)
		}
		m.byTx[tx][w.Item] = true
	}
	m.holders.touch(tx)
	return nil
}

// Stats implements Manager.
func (m *TSO) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
