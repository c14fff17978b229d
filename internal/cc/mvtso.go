package cc

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// maxVersionChain bounds the per-item version history kept by MVTSO. Old
// versions beyond the bound are pruned; reads older than the oldest kept
// version are rejected (the classic "version too old" multi-version abort).
const maxVersionChain = 32

// MVTSO is multi-version timestamp ordering — the paper's suggested
// term-project replacement for basic TSO. Each item keeps a chain of
// committed versions ordered by writer timestamp:
//
//   - a read at ts never rejects a transaction whose version is still
//     kept: it returns the latest version with writer-ts ≤ ts (waiting out
//     any pending smaller-timestamped pre-write that would create a closer
//     version), and records ts in that version's read-timestamp.
//   - a pre-write (or pre-add) at ts is rejected if ts precedes the newest
//     committed version or that version's read timestamp.
//
// Rainbow's MVTSO restricts writes to the tail of the version chain
// (textbook MVTO would insert older-timestamped writes mid-chain). The
// restriction keeps the store version numbers — which the quorum-consensus
// RCP uses to resolve replicated reads and assign install versions —
// order-consistent with timestamps; without it, a quorum read could prefer
// a higher-numbered but logically older version. The multi-version benefit
// Rainbow keeps is on the read side: reads of old versions never abort,
// which is the observable difference experiment E4 looks for.
type MVTSO struct {
	store *storage.Store
	opts  Options

	mu    sync.Mutex
	items map[model.ItemID]*mvItem
	byTx  map[model.TxID]map[model.ItemID]bool
	// holders records when each transaction first buffered an intent,
	// feeding Holders (the CC janitor's age scan).
	holders *holderTracker
	stats   Stats
}

type mvVersion struct {
	ts    model.Timestamp // writer timestamp
	rts   model.Timestamp // max read timestamp of this version
	value int64
	ver   model.Version // store version number (QC-visible)
}

type mvItem struct {
	versions []mvVersion // ascending by ts; versions[0] is the initial value
	intents  map[model.TxID]tsoIntent
	changed  chan struct{}
}

// NewMVTSO builds the MVTSO manager over the site's store.
func NewMVTSO(store *storage.Store, opts Options) *MVTSO {
	return &MVTSO{
		store:   store,
		opts:    opts,
		items:   make(map[model.ItemID]*mvItem),
		byTx:    make(map[model.TxID]map[model.ItemID]bool),
		holders: newHolderTracker(),
	}
}

// Name implements Manager.
func (m *MVTSO) Name() string { return "mvtso" }

func (m *MVTSO) item(id model.ItemID) (*mvItem, error) {
	it := m.items[id]
	if it == nil {
		c, ok := m.store.Get(id)
		if !ok {
			return nil, model.Abortf(model.AbortRCP, "no copy of %s at this site", id)
		}
		it = &mvItem{
			versions: []mvVersion{{value: c.Value, ver: c.Version}},
			intents:  make(map[model.TxID]tsoIntent),
			changed:  make(chan struct{}),
		}
		m.items[id] = it
	}
	return it, nil
}

// visible returns the index of the latest version with ts' ≤ ts.
func (it *mvItem) visible(ts model.Timestamp) int {
	idx := 0
	for i := range it.versions {
		if !ts.Less(it.versions[i].ts) { // versions[i].ts <= ts
			idx = i
		} else {
			break
		}
	}
	return idx
}

// Admit implements Manager.
func (m *MVTSO) Admit(ctx context.Context, tx model.TxID, ts model.Timestamp, op model.Op, wait bool) (int64, model.Version, error) {
	switch op.Kind {
	case model.OpRead:
		return m.read(ctx, tx, ts, op.Item, wait)
	case model.OpWrite, model.OpAdd:
		ver, err := m.preWrite(ctx, tx, ts, op.Item, op.Value, op.Kind == model.OpAdd, wait)
		return 0, ver, err
	}
	return 0, 0, errBadOp(op)
}

// read serves the latest version written at or before ts, waiting out any
// pending smaller-timestamped pre-write that would create a closer version.
// A read older than the oldest kept version is rejected.
func (m *MVTSO) read(ctx context.Context, tx model.TxID, ts model.Timestamp, item model.ItemID, wait bool) (int64, model.Version, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	it, err := m.item(item)
	if err != nil {
		return 0, 0, err
	}
	for {
		if own, ok := it.intents[tx]; ok {
			v := it.versions[it.visible(ts)]
			val := own.value
			if own.delta {
				// Delta intents merge into the chain tail at commit.
				val += it.versions[len(it.versions)-1].value
			}
			m.stats.Reads++
			return val, v.ver, nil
		}
		// Pruning (Commit) drops the chain's head: the version such a read
		// should observe is gone.
		if oldest := it.versions[0].ts; ts.Less(oldest) {
			m.stats.Rejections++
			return 0, 0, model.Abortf(model.AbortCC, "mvtso: read of %s at %s rejected, version too old (oldest kept %s)", item, ts, oldest)
		}
		v := &it.versions[it.visible(ts)]
		// A pending intent in (v.ts, ts) would create the version this read
		// should observe: wait for it to commit or abort.
		blocked := false
		for owner, in := range it.intents {
			if owner != tx && in.ts.Less(ts) && v.ts.Less(in.ts) {
				blocked = true
				break
			}
		}
		if !blocked {
			if v.rts.Less(ts) {
				v.rts = ts
			}
			m.stats.Reads++
			return v.value, v.ver, nil
		}
		if !wait {
			return 0, 0, ErrWouldBlock
		}
		if !awaitIntents(ctx, &m.mu, &m.stats, m.opts, it.changed, item) {
			return 0, 0, model.Abortf(model.AbortCC, "mvtso: read of %s at %s timed out on pre-write intent", item, ts)
		}
	}
}

// preWrite buffers a write intent (a delta-flagged one for a blind add,
// whose delta merges into the chain tail at commit — chain-local, so the
// committed version's value stays consistent with the store's delta
// apply). As in TSO, conflicting pre-writes serialize per copy (wait until
// no foreign intent is pending) so the version numbers reported to the
// quorum coordinator are unique.
func (m *MVTSO) preWrite(ctx context.Context, tx model.TxID, ts model.Timestamp, item model.ItemID, value int64, delta, wait bool) (model.Version, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	it, err := m.item(item)
	if err != nil {
		return 0, err
	}
	for {
		foreign := false
		for owner := range it.intents {
			if owner != tx {
				foreign = true
				break
			}
		}
		if !foreign {
			break
		}
		if !wait {
			return 0, ErrWouldBlock
		}
		if !awaitIntents(ctx, &m.mu, &m.stats, m.opts, it.changed, item) {
			return 0, model.Abortf(model.AbortCC, "mvtso: pre-write of %s at %s timed out on pending intent", item, ts)
		}
	}
	// Writes append at the tail of the version chain only: a write whose
	// timestamp precedes the newest committed version is rejected. Full
	// MVTO would insert it mid-chain, but the quorum layer's version
	// numbers must be order-consistent with timestamps or replicated reads
	// would resolve to the wrong version (see package doc). The
	// multi-version advantage Rainbow keeps is on the read side: reads of
	// old versions never abort.
	tail := it.versions[len(it.versions)-1]
	if ts.Less(tail.ts) {
		m.stats.Rejections++
		return 0, model.Abortf(model.AbortCC, "mvtso: pre-write of %s at %s rejected, newer version at %s", item, ts, tail.ts)
	}
	if ts.Less(tail.rts) {
		m.stats.Rejections++
		return 0, model.Abortf(model.AbortCC, "mvtso: pre-write of %s at %s rejected, version read at %s", item, ts, tail.rts)
	}
	mergeTSOIntent(it.intents, tx, tsoIntent{ts: ts, value: value, delta: delta})
	if m.byTx[tx] == nil {
		m.byTx[tx] = make(map[model.ItemID]bool)
	}
	m.byTx[tx][item] = true
	m.holders.touch(tx)
	m.stats.PreWrites++
	if delta {
		m.stats.Adds++
	}
	// Report the copy's LATEST committed store version, not the ts-visible
	// one: the quorum coordinator derives the install version from the
	// maximum reported base, which must exceed every version already
	// installed at the quorum or two writers would collide.
	c, ok := m.store.Get(item)
	if !ok {
		delete(it.intents, tx)
		delete(m.byTx[tx], item)
		return 0, model.Abortf(model.AbortRCP, "no copy of %s at this site", item)
	}
	return c.Version, nil
}

// Commit implements Manager: turn intents into committed versions, install
// the final records in the store, prune old versions.
func (m *MVTSO) Commit(tx model.TxID, writes []model.WriteRecord) error {
	storeErr := m.store.Apply(writes)
	ver := make(map[model.ItemID]model.Version, len(writes))
	for _, w := range writes {
		ver[w.Item] = w.Version
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for item := range m.byTx[tx] {
		it := m.items[item]
		if it == nil {
			continue
		}
		in, ok := it.intents[tx]
		if !ok {
			continue
		}
		delete(it.intents, tx)
		nv := mvVersion{ts: in.ts, value: in.value, ver: ver[item]}
		if in.delta {
			// Chain-local merge: the committed version's value is the chain
			// tail plus the delta, mirroring the store's delta apply. (Safe
			// to read the tail here: pre-writes serialize per copy, so no
			// other version can have slipped in since this intent was
			// admitted.)
			nv.value = it.versions[len(it.versions)-1].value + in.value
		}
		it.versions = append(it.versions, nv)
		sort.Slice(it.versions, func(i, j int) bool { return it.versions[i].ts.Less(it.versions[j].ts) })
		if len(it.versions) > maxVersionChain {
			it.versions = it.versions[len(it.versions)-maxVersionChain:]
		}
		close(it.changed)
		it.changed = make(chan struct{})
	}
	delete(m.byTx, tx)
	m.holders.drop(tx)
	return storeErr
}

// Abort implements Manager.
func (m *MVTSO) Abort(tx model.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for item := range m.byTx[tx] {
		it := m.items[item]
		if it == nil {
			continue
		}
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
func (m *MVTSO) Holders(age time.Duration) []model.TxID {
	return m.holders.holders(age)
}

// HoldsIntents implements Manager.
func (m *MVTSO) HoldsIntents(tx model.TxID, items []model.ItemID) bool {
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

// Reinstate implements Manager.
func (m *MVTSO) Reinstate(tx model.TxID, ts model.Timestamp, writes []model.WriteRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range writes {
		it, err := m.item(w.Item)
		if err != nil {
			return err
		}
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
func (m *MVTSO) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
