package site

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// TestVotePrepareEpochFence: after a live rebuild, prepares from
// transactions begun under an older epoch vote no — the rebuild discarded
// their CC protection, so preparing them could double-serialize a version.
func TestVotePrepareEpochFence(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]

	// Before any reconfigure the fence is down: old-epoch prepares with
	// live intents pass (cold boots and registration skew must not fence).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	preTx := model.TxID{Site: "B", Seq: 1}
	if err := preWrite(ctx, a.ccm, preTx, model.Timestamp{Time: 1, Site: "B"}, "x", 1); err != nil {
		t.Fatal(err)
	}
	v := a.votePrepare(wire.PrepareReq{
		Tx: preTx, Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
	})
	if !v.Yes {
		t.Fatalf("pre-fence prepare rejected: %+v", v)
	}

	cat := bump(a)
	cat.Shards = 4
	if err := a.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	v = a.votePrepare(wire.PrepareReq{
		Tx: model.TxID{Site: "B", Seq: 2}, Epoch: 0, // begun pre-bump
		Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "x", Value: 2, Version: 2}},
	})
	if v.Yes || !strings.Contains(v.Reason, "epoch fence") {
		t.Fatalf("post-rebuild old-epoch prepare = %+v, want epoch-fence no", v)
	}
}

// TestVotePrepareRejectsLostIntents: a prepare whose write set has no
// buffered pre-write intents here (wiped by crash recovery or a rebuild)
// votes no; with live intents it votes yes.
func TestVotePrepareRejectsLostIntents(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]

	ghost := model.TxID{Site: "B", Seq: 10}
	v := a.votePrepare(wire.PrepareReq{
		Tx: ghost, Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "y", Value: 5, Version: 1}},
	})
	if v.Yes || !strings.Contains(v.Reason, "intents") {
		t.Fatalf("intent-less prepare = %+v, want intents-lost no", v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	real := model.TxID{Site: "B", Seq: 11}
	if err := preWrite(ctx, a.ccm, real, model.Timestamp{Time: 2, Site: "B"}, "y", 6); err != nil {
		t.Fatal(err)
	}
	v = a.votePrepare(wire.PrepareReq{
		Tx: real, Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "y", Value: 6, Version: 1}},
	})
	if !v.Yes {
		t.Fatalf("prepared-with-intents vote = %+v, want yes", v)
	}

	// Read-only prepares carry no writes and stay exempt.
	v = a.votePrepare(wire.PrepareReq{
		Tx: model.TxID{Site: "B", Seq: 12}, Coordinator: "B",
		Participants: []model.SiteID{"A", "B"},
	})
	if !v.Yes || !v.ReadOnly {
		t.Fatalf("read-only prepare = %+v, want yes/read-only", v)
	}
}

// TestVotePrepareIdempotentForKnownTx: duplicate prepares for transactions
// the participant already tracks (in-doubt or decided) bypass the guards —
// recovery reinstates locks, not intents, and the duplicate path must stay
// idempotent.
func TestVotePrepareIdempotentForKnownTx(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	req := wire.PrepareReq{
		Tx: model.TxID{Site: "B", Seq: 20}, Coordinator: "B",
		Participants: []model.SiteID{"A", "B"},
		Writes:       []model.WriteRecord{{Item: "z", Value: 9, Version: 1}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := preWrite(ctx, a.ccm, req.Tx, model.Timestamp{Time: 3, Site: "B"}, "z", 9); err != nil {
		t.Fatal(err)
	}
	if v := a.votePrepare(req); !v.Yes {
		t.Fatalf("first prepare: %+v", v)
	}
	// Crash/recover wipes intents but restores the in-doubt state; the
	// duplicate prepare must still vote yes.
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := a.votePrepare(req); !v.Yes {
		t.Fatalf("duplicate prepare after recovery: %+v", v)
	}
}

// TestOwn3PCInDoubtNotPresumedAborted: a coordinator answering a decision
// request for its own transaction presumes abort under 2PC, but must answer
// "unknown" while it still holds the transaction in-doubt under 3PC — the
// cohort may have cooperatively committed while this site was down.
func TestOwn3PCInDoubtNotPresumedAborted(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]

	own2pc := model.TxID{Site: "A", Seq: 30}
	if v := a.part.HandlePrepare(wire.PrepareReq{
		Tx: own2pc, Coordinator: "A", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 5}},
	}); !v.Yes {
		t.Fatal(v)
	}
	if commit, known := a.localDecision(own2pc, false); !known || commit {
		t.Errorf("2PC own in-doubt decision = (%v,%v), want presumed abort (false,true)", commit, known)
	}

	own3pc := model.TxID{Site: "A", Seq: 31}
	if v := a.part.HandlePrepare(wire.PrepareReq{
		Tx: own3pc, Coordinator: "A", Participants: []model.SiteID{"A", "B"},
		ThreePhase: true,
		Writes:     []model.WriteRecord{{Item: "y", Value: 1, Version: 5}},
	}); !v.Yes {
		t.Fatal(v)
	}
	if _, known := a.localDecision(own3pc, false); known {
		t.Error("3PC own in-doubt transaction must not be presumed aborted")
	}
	// A marked 3PC query never gets presumed abort, even with no local
	// trace at all (a recovered non-member coordinator).
	if _, known := a.localDecision(model.TxID{Site: "A", Seq: 32}, true); known {
		t.Error("marked 3PC query answered with presumed abort")
	}
}
