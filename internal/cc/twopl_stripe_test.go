package cc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// TestTwoPLStripedIntentsConcurrent hammers the striped intent buffer from
// many goroutines (run under -race in CI): disjoint single-item
// transactions read their own intents back and commit/abort without a
// global mutex serializing them.
func TestTwoPLStripedIntentsConcurrent(t *testing.T) {
	const nItems, workers, rounds = 64, 8, 50
	items := make(map[model.ItemID]int64, nItems)
	ids := make([]model.ItemID, nItems)
	for i := range ids {
		ids[i] = model.ItemID(fmt.Sprintf("i%03d", i))
		items[ids[i]] = 0
	}
	store := storage.NewSharded(8)
	store.Init(items)
	m := NewTwoPL(store, Options{Shards: 8})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := model.TxID{Site: model.SiteID(fmt.Sprintf("W%d", w)), Seq: uint64(r + 1)}
				item := ids[(w*rounds+r)%nItems]
				want := int64(w*1000 + r)
				if _, _, err := admit(m, tx, model.Timestamp{}, model.Write(item, want)); err != nil {
					t.Errorf("pre-write: %v", err)
					return
				}
				got, _, err := admit(m, tx, model.Timestamp{}, model.Read(item))
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if got != want {
					t.Errorf("read-your-writes through stripes: got %d, want %d", got, want)
					return
				}
				if r%2 == 0 {
					if err := m.Commit(tx, []model.WriteRecord{{Item: item, Value: want, Version: model.Version(w*rounds + r + 1)}}); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
				} else {
					m.Abort(tx)
				}
			}
		}(w)
	}
	wg.Wait()

	s := m.Stats()
	if s.Reads != workers*rounds || s.PreWrites != workers*rounds {
		t.Errorf("stats = %+v, want %d reads and pre-writes", s, workers*rounds)
	}
}

// TestTwoPLAbortClearsIntentsAcrossStripes writes intents on items that
// hash to different stripes and verifies Abort sweeps all of them.
func TestTwoPLAbortClearsIntentsAcrossStripes(t *testing.T) {
	items := map[model.ItemID]int64{}
	var ids []model.ItemID
	for i := 0; i < 16; i++ {
		id := model.ItemID(fmt.Sprintf("k%02d", i))
		ids = append(ids, id)
		items[id] = 7
	}
	store := storage.NewSharded(8)
	store.Init(items)
	m := NewTwoPL(store, Options{Shards: 8})
	tx := model.TxID{Site: "A", Seq: 1}
	for _, id := range ids {
		if _, _, err := admit(m, tx, model.Timestamp{}, model.Write(id, 99)); err != nil {
			t.Fatal(err)
		}
	}
	m.Abort(tx)
	// A new transaction must see the stored values, not stale intents.
	tx2 := model.TxID{Site: "A", Seq: 2}
	for _, id := range ids {
		v, _, err := admit(m, tx2, model.Timestamp{}, model.Read(id))
		if err != nil {
			t.Fatal(err)
		}
		if v != 7 {
			t.Fatalf("item %s: read %d after abort, want 7", id, v)
		}
	}
	m.Abort(tx2)
}

// TestTombstonesExpire: a finished transaction's tombstone refuses its late
// operations until finishedTTL has passed, and each stripe drops its expired
// tombstones at its next purge, so the stripes shrink back after the TTL.
func TestTombstonesExpire(t *testing.T) {
	store := storage.New()
	store.Init(map[model.ItemID]int64{"x": 0})
	m := NewTwoPL(store, Options{LockTimeout: 10 * time.Millisecond})
	size := func() int {
		total := 0
		for i := range m.finished {
			sh := &m.finished[i]
			sh.mu.Lock()
			total += len(sh.m)
			sh.mu.Unlock()
		}
		return total
	}
	const n = 2000
	finish := func(from uint64) {
		for seq := from; seq < from+n; seq++ {
			m.markFinished(model.TxID{Site: "S1", Seq: seq})
		}
	}
	old := model.TxID{Site: "S1", Seq: 1}
	finish(1)
	if err := m.checkFinished(old); !errors.Is(err, ErrTxFinished) {
		t.Fatalf("fresh tombstone: checkFinished = %v, want ErrTxFinished", err)
	}
	if got := size(); got != n {
		t.Fatalf("%d tombstones, want %d", got, n)
	}

	// Past the TTL, and so past every stripe's next purge.
	time.Sleep(m.finishedTTL() * 3 / 2)
	if err := m.checkFinished(old); err != nil {
		t.Errorf("expired tombstone: checkFinished = %v, want nil", err)
	}
	finish(n + 1)
	if got := size(); got > n {
		t.Errorf("%d tombstones after the TTL, want at most the %d fresh ones", got, n)
	}
	sh := m.finishedShardOf(old)
	sh.mu.Lock()
	_, kept := sh.m[old]
	sh.mu.Unlock()
	if kept {
		t.Error("an expired tombstone survived its stripe's purge")
	}
}
