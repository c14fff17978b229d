package cc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// TestDifferentialSequentialOracle runs random *sequential* transaction
// histories through all three CCP managers. With no concurrency, every
// scheduler must admit every operation and produce byte-identical final
// stores — any divergence is a scheduler bug (version bookkeeping, intent
// leakage, visibility).
func TestDifferentialSequentialOracle(t *testing.T) {
	items := []model.ItemID{"a", "b", "c"}

	run := func(name string, seed int64) (map[model.ItemID]storage.Copy, map[int]int64, bool) {
		store := storage.New()
		init := make(map[model.ItemID]int64, len(items))
		for i, it := range items {
			init[it] = int64(i * 100)
		}
		store.Init(init)
		m, err := New(name, store, Options{LockTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		reads := make(map[int]int64)
		version := make(map[model.ItemID]model.Version, len(items))
		readSeq := 0
		for txn := uint64(1); txn <= 12; txn++ {
			id := model.TxID{Site: "S", Seq: txn}
			ts := model.Timestamp{Time: txn, Site: "S"}
			var writes []model.WriteRecord
			nops := 1 + rng.Intn(4)
			ok := true
			for i := 0; i < nops && ok; i++ {
				item := items[rng.Intn(len(items))]
				if rng.Intn(2) == 0 {
					v, _, err := admit(m, id, ts, model.Read(item))
					if err != nil {
						ok = false
						break
					}
					reads[readSeq] = v
					readSeq++
				} else {
					_, _, err := admit(m, id, ts, model.Write(item, int64(txn*1000)+int64(i)))
					if err != nil {
						ok = false
						break
					}
					// Replace any earlier record for the same item, keeping
					// its version (the session layer does the same).
					replaced := false
					for j := range writes {
						if writes[j].Item == item {
							writes[j].Value = int64(txn*1000) + int64(i)
							replaced = true
							break
						}
					}
					if !replaced {
						version[item]++
						writes = append(writes, model.WriteRecord{Item: item, Value: int64(txn*1000) + int64(i), Version: version[item]})
					}
				}
			}
			if !ok {
				m.Abort(id)
				return nil, nil, false
			}
			if err := m.Commit(id, writes); err != nil {
				t.Fatalf("%s: commit: %v", name, err)
			}
		}
		return store.Snapshot(), reads, true
	}

	f := func(seed int64) bool {
		ref, refReads, refOK := run("2pl", seed)
		if !refOK {
			return false // sequential ops must never be rejected
		}
		for _, name := range []string{"tso", "mvtso"} {
			snap, rds, ok := run(name, seed)
			if !ok {
				t.Logf("%s rejected a sequential operation (seed %d)", name, seed)
				return false
			}
			if len(snap) != len(ref) {
				return false
			}
			for item, c := range ref {
				if snap[item] != c {
					t.Logf("%s: item %s = %+v, 2pl = %+v (seed %d)", name, item, snap[item], c, seed)
					return false
				}
			}
			if len(rds) != len(refReads) {
				return false
			}
			for i, v := range refReads {
				if rds[i] != v {
					t.Logf("%s: read %d = %d, 2pl = %d (seed %d)", name, i, rds[i], v, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
