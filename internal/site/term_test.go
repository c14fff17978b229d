package site

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/wire"
)

// newClusterTimeouts is newCluster with caller-chosen protocol timeouts
// (the janitor test needs a small lock timeout so the derived holder age
// threshold is test-sized).
func newClusterTimeouts(t *testing.T, n int, timeouts schema.Timeouts) *cluster {
	t.Helper()
	return newClusterCat(t, n, func(cat *schema.Catalog) {
		for item, initial := range items() {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Timeouts = timeouts
	})
}

// TestVotePrepareIncarnationFence: a prepare carrying a stale incarnation
// number is rejected deterministically — even while matching intents ARE
// buffered (the exactness the conservative intent heuristic lacks) — and a
// crash recovery bumps the incarnation.
func TestVotePrepareIncarnationFence(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	inc := a.Incarnation()
	if inc == 0 {
		t.Fatal("incarnation not assigned at boot")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tx := model.TxID{Site: "B", Seq: 50}
	if err := preWrite(ctx, a.ccm, tx, model.Timestamp{Time: 1, Site: "B"}, "x", 1); err != nil {
		t.Fatal(err)
	}
	// Stale incarnation: rejected despite live intents.
	v := a.votePrepare(wire.PrepareReq{
		Tx: tx, Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes:      []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
		Incarnation: inc - 1,
	})
	if v.Yes || !strings.Contains(v.Reason, "incarnation fence") {
		t.Fatalf("stale-incarnation prepare = %+v, want incarnation-fence no", v)
	}
	// Current incarnation: accepted.
	v = a.votePrepare(wire.PrepareReq{
		Tx: tx, Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes:      []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
		Incarnation: inc,
	})
	if !v.Yes {
		t.Fatalf("current-incarnation prepare = %+v, want yes", v)
	}

	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := a.Incarnation(); got <= inc {
		t.Errorf("incarnation after crash recovery = %d, want > %d", got, inc)
	}
}

// TestCopyOpsReportIncarnation: read and pre-write responses carry the
// serving site's incarnation (the number the session echoes into
// prepares).
func TestCopyOpsReportIncarnation(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a, b := c.sites["A"], c.sites["B"]
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tx := model.TxID{Site: "A", Seq: 60}
	ts := model.Timestamp{Time: 1, Site: "A"}
	rep, err := a.CopyBatch(ctx, "B", rcp.NewSession(tx, ts), []model.Op{model.Read("x"), model.Write("y", 9)}, rcp.Leg{})
	if err != nil || rep.Results[0].Err != nil || rep.Results[1].Err != nil || rep.Incarnation != b.Incarnation() {
		t.Fatalf("remote copy operations = %+v, %v; want incarnation %d", rep, err, b.Incarnation())
	}
	b.Decide(ctx, "B", tx, false, false) //nolint:errcheck // release the probe state
}

// TestJanitorReleasesStrandedState: unprepared CC state whose home has no
// record of the transaction (the home process died and took its release
// retries with it) is presumed-abort-queried and released by the holding
// site's own janitor — and the tombstone makes a late prepare vote no.
func TestJanitorReleasesStrandedState(t *testing.T) {
	c := newClusterTimeouts(t, 2, schema.Timeouts{
		Op: time.Second, Vote: time.Second, Ack: 500 * time.Millisecond,
		Lock:          40 * time.Millisecond, // janitor age = 400ms
		OrphanResolve: 30 * time.Millisecond,
	})
	b := c.sites["B"]

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tx := model.TxID{Site: "A", Seq: 12345} // home A has never heard of it
	if err := preWrite(ctx, b.ccm, tx, model.Timestamp{Time: 1, Site: "A"}, "x", 7); err != nil {
		t.Fatal(err)
	}
	if got := b.ccm.Holders(0); len(got) != 1 {
		t.Fatalf("holders = %v, want the stranded transaction", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(b.ccm.Holders(0)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never released the stranded state: holders = %v", b.ccm.Holders(0))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The tombstone fences a late prepare for the janitored transaction.
	v := b.votePrepare(wire.PrepareReq{
		Tx: tx, Coordinator: "A", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "x", Value: 7, Version: 1}},
	})
	if v.Yes {
		t.Fatalf("late prepare after janitor release voted yes: %+v", v)
	}

	// The freed lock is actually usable again.
	free := model.TxID{Site: "B", Seq: 1}
	if err := preWrite(ctx, b.ccm, free, model.Timestamp{Time: 2, Site: "B"}, "x", 8); err != nil {
		t.Fatalf("lock still held after janitor release: %v", err)
	}
	b.ccm.Abort(free)
}

// janitorTimeouts makes the janitor's holder-age threshold test-sized: 10 ×
// the 40 ms lock timeout, swept every 30 ms.
var janitorTimeouts = schema.Timeouts{
	Op: time.Second, Vote: time.Second, Ack: 500 * time.Millisecond,
	Lock: 40 * time.Millisecond, OrphanResolve: 30 * time.Millisecond,
}

// TestJanitorSparesLiveTransaction: an interactive transaction that idles
// past the janitor's age threshold while holding a remote read lock is still
// running as far as its home is concerned — the remote janitor's query is
// answered "unknown, still running", the lock stays, and the transaction
// commits.
func TestJanitorSparesLiveTransaction(t *testing.T) {
	c := newClusterTimeouts(t, 2, janitorTimeouts)
	a, b := c.sites["A"], c.sites["B"]
	txn, err := a.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := txn.Read("x"); err != nil || v != 10 {
		t.Fatalf("read x = %d, %v", v, err)
	}
	time.Sleep(2 * janitorAge(janitorTimeouts)) // many sweeps past the threshold
	if holders := b.ccm.Holders(0); len(holders) != 1 || holders[0] != txn.ID() {
		t.Fatalf("holders at B = %v: the janitor swept a live transaction's read lock", holders)
	}
	if err := txn.Write("x", 11); err != nil {
		t.Fatal(err)
	}
	if out := txn.Commit(); !out.Committed {
		t.Fatalf("slow but live transaction = %+v, want commit", out)
	}
}

// TestJanitorSweepsAbandonedTransaction: the same remote read lock, but the
// home crashes and recovers with no memory of the transaction — now it IS
// presumed aborted, and the remote janitor frees the lock.
func TestJanitorSweepsAbandonedTransaction(t *testing.T) {
	c := newClusterTimeouts(t, 2, janitorTimeouts)
	a, b := c.sites["A"], c.sites["B"]
	txn, err := a.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read("x"); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(b.ccm.Holders(0)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never swept the abandoned transaction: holders = %v", b.ccm.Holders(0))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAbandonedTransactionOnLiveHomeIsReleased: a caller that cancels its
// context and walks away without Commit or Abort does not leave its
// transaction registered as still running on a live home: the home
// deregisters it and releases its sites at once — long before any janitor's
// age threshold (5 s here) — and a late Commit finds it aborted.
func TestAbandonedTransactionOnLiveHomeIsReleased(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a, b := c.sites["A"], c.sites["B"]
	ctx, cancel := context.WithCancel(context.Background())
	txn, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read("x"); err != nil {
		t.Fatal(err)
	}
	if holders := b.ccm.Holders(0); len(holders) != 1 || holders[0] != txn.ID() {
		t.Fatalf("holders at B = %v, want the transaction's read lock", holders)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		active := a.activeCoord[txn.ID()]
		a.mu.Unlock()
		if !active && len(a.ccm.Holders(0)) == 0 && len(b.ccm.Holders(0)) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned transaction: still registered = %v, holders at A %v, at B %v", active, a.ccm.Holders(0), b.ccm.Holders(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, known := a.localDecision(txn.ID(), false); !known {
		t.Error("home still answers \"running\" for the abandoned transaction")
	}
	if out := txn.Commit(); out.Committed {
		t.Errorf("commit of an abandoned transaction = %+v", out)
	}
	if out := b.Execute(context.Background(), []model.Op{model.Write("x", 11)}); !out.Committed {
		t.Errorf("writer after the abandonment = %+v", out)
	}
}

// TestRecovered3PCMemberTerminatesWithLoggedPreCommit: a member that
// crashes holding a LOGGED pre-commit rejoins quorum termination with it
// after recovery, and the whole cohort converges on COMMIT — the exact
// fail-recover schedule the old volatile pre-commit state got wrong.
func TestRecovered3PCMemberTerminatesWithLoggedPreCommit(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	sites := []model.SiteID{"A", "B", "C"}
	tx := model.TxID{Site: "A", Seq: 99}
	ts := model.Timestamp{Time: 5, Site: "A"}
	writes := []model.WriteRecord{{Item: "x", Value: 42, Version: 1}}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, id := range sites {
		st := c.sites[id]
		if err := preWrite(ctx, st.ccm, tx, ts, "x", 42); err != nil {
			t.Fatal(err)
		}
		v := st.votePrepare(wire.PrepareReq{
			Tx: tx, TS: ts, Coordinator: "A",
			Participants: sites, Voters: sites, ThreePhase: true,
			Writes: writes, Incarnation: st.Incarnation(),
		})
		if !v.Yes {
			t.Fatalf("%s vote = %+v", id, v)
		}
	}
	b := c.sites["B"]
	if err := b.PreCommit(ctx, "B", tx); err != nil {
		t.Fatal(err)
	}
	// The coordinator "crashes" before deciding; B crashes with its logged
	// pre-commit and recovers.
	b.Crash()
	if err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	if b.InDoubtCount() != 1 {
		t.Fatalf("recovered member lost its in-doubt state: %d", b.InDoubtCount())
	}

	// The resolver loops must drive every member to the SAME outcome —
	// commit, because B's pre-commit is the highest-ballot evidence.
	deadline := time.Now().Add(8 * time.Second)
	for {
		drained := true
		for _, id := range sites {
			if c.sites[id].InDoubtCount() != 0 {
				drained = false
			}
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("termination did not drain: A=%d B=%d C=%d",
				c.sites["A"].InDoubtCount(), c.sites["B"].InDoubtCount(), c.sites["C"].InDoubtCount())
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, id := range sites {
		st := c.sites[id]
		if cp, ok := st.Store().Get("x"); !ok || cp.Value != 42 || cp.Version != 1 {
			t.Errorf("%s: x = %+v, want 42@v1 (commit must install everywhere)", id, cp)
		}
		if commit, known := st.part.Decision(tx); !known || !commit {
			t.Errorf("%s: decision = (%v,%v), want known commit", id, commit, known)
		}
	}
}
