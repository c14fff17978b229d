package site

import (
	"context"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rcp"
	"repro/internal/schema"
)

// The read-only fold: a read-only wave's last leg, when remote, is admitted
// and released in one round trip (Site.fold). These tests cover the site's
// half — the guards and the release — and the home's fallbacks.

var foldReads = []model.Op{model.Read("w"), model.Read("x"), model.Read("y"), model.Read("z")}

// foldCluster is a 3-site cluster over waveItems, with customize applied to
// the catalog.
func foldCluster(t *testing.T, customize func(*schema.Catalog)) *cluster {
	t.Helper()
	return newClusterCat(t, 3, func(cat *schema.Catalog) {
		for item, initial := range waveItems {
			cat.ReplicateEverywhere(item, initial)
		}
		customize(cat)
	})
}

// holders lists the transactions holding CC state at s.
func holders(s *Site) []model.TxID {
	s.mu.Lock()
	ccm := s.ccm
	s.mu.Unlock()
	return ccm.Holders(0)
}

// TestFoldReleasesBeforeReplying: a final batch is admitted, released and
// answered Released in one round trip, so the serving site holds nothing for
// the transaction once the reply is in; an ordinary batch keeps its locks.
// Both the pipelined and the synchronous serve path fold.
func TestFoldReleasesBeforeReplying(t *testing.T) {
	for _, noPipeline := range []bool{false, true} {
		c := foldCluster(t, func(cat *schema.Catalog) { cat.Pipeline.Disable = noPipeline })
		a, b := c.sites["A"], c.sites["B"]
		ts := model.Timestamp{Time: 1, Site: "A"}

		held := rcp.NewSession(model.TxID{Site: "A", Seq: 1}, ts)
		rep, err := a.CopyBatch(context.Background(), "B", held, foldReads, rcp.Leg{})
		if err != nil || rep.Released {
			t.Fatalf("pipeline off=%v: ordinary batch = %+v, %v", noPipeline, rep, err)
		}
		if h := holders(b); len(h) != 1 || h[0] != held.Tx {
			t.Errorf("pipeline off=%v: holders after an ordinary batch = %v, want %v", noPipeline, h, held.Tx)
		}
		b.releaseAt("B", held.Tx)

		folded := rcp.NewSession(model.TxID{Site: "A", Seq: 2}, ts)
		rep, err = a.CopyBatch(context.Background(), "B", folded, foldReads, rcp.Leg{Final: true})
		if err != nil || !rep.Released {
			t.Fatalf("pipeline off=%v: final batch = %+v, %v; want released", noPipeline, rep, err)
		}
		for i, r := range rep.Results {
			if r.Err != nil || r.Value != waveItems[foldReads[i].Item] {
				t.Errorf("pipeline off=%v: final batch result %d = %+v", noPipeline, i, r)
			}
		}
		if h := holders(b); len(h) != 0 {
			t.Errorf("pipeline off=%v: holders after a final batch = %v, want none", noPipeline, h)
		}
	}
}

// TestFoldRefusedForReleasedTx: a final batch for a transaction this site
// already released is refused and leaves no CC state behind — on the
// pipelined and on the synchronous serve path.
func TestFoldRefusedForReleasedTx(t *testing.T) {
	for _, noPipeline := range []bool{false, true} {
		c := foldCluster(t, func(cat *schema.Catalog) { cat.Pipeline.Disable = noPipeline })
		a, b := c.sites["A"], c.sites["B"]
		sess := rcp.NewSession(model.TxID{Site: "A", Seq: 7}, model.Timestamp{Time: 1, Site: "A"})
		b.tombstone(sess.Tx)
		rep, err := a.CopyBatch(context.Background(), "B", sess, foldReads, rcp.Leg{Final: true})
		if err == nil || rep.Released {
			t.Fatalf("pipeline off=%v: final batch for a released transaction = %+v, %v; want a refusal", noPipeline, rep, err)
		}
		if h := holders(b); len(h) != 0 {
			t.Errorf("pipeline off=%v: holders after the refusal = %v, want none", noPipeline, h)
		}
	}
}

// TestFoldRefusedPastEpochFence: B was rebuilt live to a newer epoch than the
// one A's transaction began under. A's read-only wave folds its last leg at
// B, B's epoch fence refuses it — as a read-only prepare would have been
// refused — and B holds no CC state for the transaction.
func TestFoldRefusedPastEpochFence(t *testing.T) {
	c := foldCluster(t, func(*schema.Catalog) {})
	a, b := c.sites["A"], c.sites["B"]
	cat := bump(b)
	cat.Shards = 4
	if err := b.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	out := a.Execute(context.Background(), foldReads)
	if out.Committed || out.Cause != model.AbortACP {
		t.Fatalf("read-only wave past B's epoch fence = %+v, want an ACP abort", out)
	}
	if h := holders(b); len(h) != 0 {
		t.Errorf("holders at B after the refusal = %v, want none", h)
	}
	waitNoHolders(t, c)
}

// TestFoldEarlierLegKeepsIncarnationFence: a C-homed read-only wave ships A's
// leg first and its own last, so nothing folds — and that is what keeps it
// safe. A answers, then crashes and recovers while C's own leg waits behind
// a writer's lock; A's read locks died with the crash before the lock point.
// When C's leg goes on, the ordinary vote at A fails its incarnation fence
// and the transaction aborts.
func TestFoldEarlierLegKeepsIncarnationFence(t *testing.T) {
	c := foldCluster(t, func(cat *schema.Catalog) { cat.Timeouts.Lock = 5 * time.Second })
	a, home := c.sites["A"], c.sites["C"]
	blocker := model.TxID{Site: "B", Seq: 1}
	if _, err := home.ccm.PreWrite(context.Background(), blocker, model.Timestamp{Time: 1, Site: "B"}, "z", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan model.Outcome, 1)
	go func() { done <- home.Execute(context.Background(), foldReads) }()

	deadline := time.Now().Add(5 * time.Second)
	for len(holders(a)) == 0 {
		if time.Now().After(deadline) {
			home.ccm.Abort(blocker)
			t.Fatal("A never admitted the wave's first leg")
		}
		time.Sleep(time.Millisecond)
	}
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	home.ccm.Abort(blocker)

	if out := <-done; out.Committed || out.Cause != model.AbortACP {
		t.Fatalf("read-only wave across A's crash = %+v, want an ACP abort on A's incarnation fence", out)
	}
	waitNoHolders(t, c)
}

// TestFoldFallsBackWhenLastLegUnreachable: the final leg gets no answer, so
// the wave falls back to an ordinary replacement round at the third site,
// which then votes; the transaction commits, and the silent site is released
// as a stray once it is reachable again.
func TestFoldFallsBackWhenLastLegUnreachable(t *testing.T) {
	c := foldCluster(t, func(cat *schema.Catalog) { cat.Timeouts.Op = 100 * time.Millisecond })
	a, b := c.sites["A"], c.sites["B"]
	c.net.Partition([]model.SiteID{"A", "C", model.NameServerID}, []model.SiteID{"B"})
	out := a.Execute(context.Background(), foldReads)
	if !out.Committed {
		t.Fatalf("read-only wave with its last leg unreachable = %+v, want a commit over {A, C}", out)
	}
	for _, op := range foldReads {
		if out.Reads[op.Item] != waveItems[op.Item] {
			t.Errorf("read %s = %d, want %d", op.Item, out.Reads[op.Item], waveItems[op.Item])
		}
	}
	c.net.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for !b.isReleased(out.Tx) {
		if time.Now().After(deadline) {
			t.Fatal("the silent site was never released")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitNoHolders(t, c)
}

// TestReleaseTombstonesStayBounded: tombstones live in two generation maps,
// so an insert never scans. 50k tombstones within one generation are all
// found; a generation later they are still found, and after the next they
// are dropped whole while the fresh entries remain.
func TestReleaseTombstonesStayBounded(t *testing.T) {
	var ts tombstones
	t0 := time.Now()
	const n = 50_000
	for i := 0; i < n; i++ {
		ts.add(model.TxID{Site: "A", Seq: uint64(i)}, t0.Add(time.Duration(i)*time.Millisecond)) // 50 s
	}
	if got := len(ts.cur) + len(ts.prev); got != n {
		t.Fatalf("%d tombstones held, want %d", got, n)
	}
	first, last := model.TxID{Site: "A", Seq: 0}, model.TxID{Site: "A", Seq: n - 1}
	if !ts.has(first) || !ts.has(last) {
		t.Fatal("a tombstone inserted within the generation is missing")
	}

	fresh := model.TxID{Site: "B", Seq: 1}
	ts.add(fresh, t0.Add(tombstoneGeneration+time.Second))
	if !ts.has(first) || !ts.has(fresh) {
		t.Error("after one rotation the previous generation must still be found")
	}

	fresher := model.TxID{Site: "B", Seq: 2}
	ts.add(fresher, t0.Add(2*tombstoneGeneration+2*time.Second))
	if got := len(ts.cur) + len(ts.prev); got != 2 {
		t.Errorf("%d tombstones held after two rotations, want 2", got)
	}
	if ts.has(first) || ts.has(last) {
		t.Error("tombstones two generations old were not dropped")
	}
	if !ts.has(fresh) || !ts.has(fresher) {
		t.Error("a fresh tombstone was dropped")
	}
}
