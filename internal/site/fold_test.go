package site

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/wire"
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
func TestFoldReleasesBeforeReplying(t *testing.T) {
	c := foldCluster(t, func(*schema.Catalog) {})
	a, b := c.sites["A"], c.sites["B"]
	ts := model.Timestamp{Time: 1, Site: "A"}

	held := rcp.NewSession(model.TxID{Site: "A", Seq: 1}, ts)
	rep, err := a.CopyBatch(context.Background(), "B", held, foldReads, rcp.Leg{})
	if err != nil || rep.Released {
		t.Fatalf("ordinary batch = %+v, %v", rep, err)
	}
	if h := holders(b); len(h) != 1 || h[0] != held.Tx {
		t.Errorf("holders after an ordinary batch = %v, want %v", h, held.Tx)
	}
	b.releaseAt("B", held.Tx)

	folded := rcp.NewSession(model.TxID{Site: "A", Seq: 2}, ts)
	rep, err = a.CopyBatch(context.Background(), "B", folded, foldReads, rcp.Leg{Final: true})
	if err != nil || !rep.Released {
		t.Fatalf("final batch = %+v, %v; want released", rep, err)
	}
	for i, r := range rep.Results {
		if r.Err != nil || r.Value != waveItems[foldReads[i].Item] {
			t.Errorf("final batch result %d = %+v", i, r)
		}
	}
	if h := holders(b); len(h) != 0 {
		t.Errorf("holders after a final batch = %v, want none", h)
	}
}

// TestFoldRefusedForReleasedTx: a final batch for a transaction this site
// already released is refused and leaves no CC state behind.
func TestFoldRefusedForReleasedTx(t *testing.T) {
	c := foldCluster(t, func(*schema.Catalog) {})
	a, b := c.sites["A"], c.sites["B"]
	sess := rcp.NewSession(model.TxID{Site: "A", Seq: 7}, model.Timestamp{Time: 1, Site: "A"})
	b.tombstone(sess.Tx)
	rep, err := a.CopyBatch(context.Background(), "B", sess, foldReads, rcp.Leg{Final: true})
	if err == nil || rep.Released {
		t.Fatalf("final batch for a released transaction = %+v, %v; want a refusal", rep, err)
	}
	if h := holders(b); len(h) != 0 {
		t.Errorf("holders after the refusal = %v, want none", h)
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

// TestFoldEarlierLegKeepsIncarnationFence: a C-homed read-only wave's rerun
// ships A's leg first and C's own last, so nothing folds — and that is what
// keeps it safe. The first attempt runs C's leg first, but A's no-wait leg
// refuses behind a writer's lock on w, and the rerun then waits at A in site
// order. A answers once the writer goes, then crashes and recovers while C's
// own leg waits behind another writer's lock on z; A's read locks died with
// the crash before the lock point. When C's leg goes on, the ordinary vote
// at A fails its incarnation fence and the transaction aborts.
func TestFoldEarlierLegKeepsIncarnationFence(t *testing.T) {
	c := foldCluster(t, func(cat *schema.Catalog) { cat.Timeouts.Lock = 5 * time.Second })
	a, home := c.sites["A"], c.sites["C"]
	first, second := model.TxID{Site: "B", Seq: 1}, model.TxID{Site: "B", Seq: 2}
	if err := preWrite(context.Background(), a.ccm, first, model.Timestamp{Time: 1, Site: "B"}, "w", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan model.Outcome, 1)
	go func() { done <- home.Execute(context.Background(), foldReads) }()

	deadline := time.Now().Add(5 * time.Second)
	for home.Stats().HomeFirstReruns == 0 {
		if time.Now().After(deadline) {
			a.ccm.Abort(first)
			t.Fatal("A's no-wait leg never refused")
		}
		time.Sleep(time.Millisecond)
	}
	// The rerun waits at A behind first; C's own leg, after it, will wait
	// behind second.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := preWrite(ctx, home.ccm, second, model.Timestamp{Time: 2, Site: "B"}, "z", 1); err != nil {
		a.ccm.Abort(first)
		t.Fatal(err)
	}
	a.ccm.Abort(first)
	for len(holders(a)) == 0 {
		if time.Now().After(deadline) {
			home.ccm.Abort(second)
			t.Fatal("A never admitted the rerun's first leg")
		}
		time.Sleep(time.Millisecond)
	}
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	home.ccm.Abort(second)

	if out := <-done; out.Committed || out.Cause != model.AbortACP {
		t.Fatalf("read-only wave across A's crash = %+v, want an ACP abort on A's incarnation fence", out)
	}
	waitNoHolders(t, c)
}

// TestHomeFirstFoldIncarnationFence: a C-homed read-only wave runs C's own
// leg first and folds A's, shipped after it. C is rebuilt (its incarnation
// bumped) after its leg ran and before its own read-only vote, which is held
// here behind its gate: the CC protection its leg took is gone, so C's
// guards vote no and the transaction aborts, leaving no CC state anywhere.
func TestHomeFirstFoldIncarnationFence(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := foldCluster(t, func(cat *schema.Catalog) {
				cat.Protocols = schema.Protocols{RCP: "qc", CCP: ccp, ACP: "2pc"}
			})
			home := c.sites["C"]
			var shipped atomic.Bool // C's leg ran: it ships A's after it
			c.net.Drop(func(env *wire.Envelope) bool {
				if env.Kind == wire.KindCopyBatch && !env.Reply && env.From == "C" {
					shipped.Store(true)
				}
				return false
			})
			home.gate.Lock()
			done := make(chan model.Outcome, 1)
			go func() { done <- home.Execute(context.Background(), foldReads) }()
			deadline := time.Now().Add(5 * time.Second)
			for !shipped.Load() {
				if time.Now().After(deadline) {
					home.gate.Unlock()
					t.Fatal("C never shipped A's leg")
				}
				time.Sleep(time.Millisecond)
			}
			home.mu.Lock()
			home.incarnation++
			home.mu.Unlock()
			home.gate.Unlock()
			out := <-done
			if out.Committed || out.Cause != model.AbortACP {
				t.Fatalf("read-only wave across a home rebuild = %+v, want an ACP abort", out)
			}
			if st := home.Stats(); st.HomeFirstWaves != 1 || st.HomeFirstReruns != 0 {
				t.Errorf("home stats: %d home-first waves, %d reruns; want 1 and 0", st.HomeFirstWaves, st.HomeFirstReruns)
			}
			waitNoHolders(t, c)
		})
	}
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
