package cc

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// TestHoldersAcrossManagers: every manager reports aged CC holders and
// forgets them on commit/abort — the listing the site-level CC janitor
// sweeps.
func TestHoldersAcrossManagers(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			store := storage.New()
			store.Init(map[model.ItemID]int64{"x": 1, "y": 2})
			m, err := New(name, store, Options{LockTimeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			held := model.TxID{Site: "A", Seq: 1}
			done := model.TxID{Site: "A", Seq: 2}
			ts := model.Timestamp{Time: 1, Site: "A"}
			if _, _, err := admit(m, held, ts, model.Write("x", 10)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := admit(m, done, model.Timestamp{Time: 2, Site: "A"}, model.Write("y", 20)); err != nil {
				t.Fatal(err)
			}
			m.Abort(done)

			got := m.Holders(0)
			if len(got) != 1 || got[0] != held {
				t.Fatalf("Holders(0) = %v, want just %v", got, held)
			}
			if got := m.Holders(time.Hour); len(got) != 0 {
				t.Errorf("Holders(1h) = %v, want none (fresh state is not aged)", got)
			}

			if err := m.Commit(held, []model.WriteRecord{{Item: "x", Value: 10, Version: 1}}); err != nil {
				t.Fatal(err)
			}
			if got := m.Holders(0); len(got) != 0 {
				t.Errorf("Holders after commit = %v, want none", got)
			}

			// Reinstate (crash recovery) re-registers the holder.
			re := model.TxID{Site: "B", Seq: 3}
			if err := m.Reinstate(re, model.Timestamp{Time: 3, Site: "B"}, []model.WriteRecord{{Item: "y", Value: 30, Version: 2}}); err != nil {
				t.Fatal(err)
			}
			if got := m.Holders(0); len(got) != 1 || got[0] != re {
				t.Errorf("Holders after reinstate = %v, want %v", got, re)
			}
			m.Abort(re)
		})
	}
}
