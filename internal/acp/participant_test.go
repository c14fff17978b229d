package acp

import (
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

// TestForceEndRetiresDecision: the coordinator's end record (all cohort
// acknowledgements in) must both append to the log and drop the decision
// from the table, while an unacknowledged decision stays served.
func TestForceEndRetiresDecision(t *testing.T) {
	log := wal.NewMemory()
	p := NewParticipant("S1", log, newApplier())
	acked := model.TxID{Site: "S1", Seq: 1}
	unacked := model.TxID{Site: "S1", Seq: 2}
	if err := p.ForceDecision(wal.Record{Type: wal.RecDecision, Tx: acked, Commit: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.ForceDecision(wal.Record{Type: wal.RecDecision, Tx: unacked, Commit: true}); err != nil {
		t.Fatal(err)
	}
	if p.DecisionCount() != 2 {
		t.Fatalf("decision count = %d, want 2", p.DecisionCount())
	}

	if err := p.ForceEnd(wal.Record{Type: wal.RecEnd, Tx: acked}); err != nil {
		t.Fatal(err)
	}
	// The TABLE entry retires (snapshots stop mirroring it) — but stale
	// queries still get the right answer from the bounded ended window.
	if _, tabled := p.DecisionTable()[acked]; tabled {
		t.Error("fully acknowledged decision not retired from the table")
	}
	if commit, known := p.Decision(acked); !known || !commit {
		t.Error("retired outcome must stay answerable within the ended window")
	}
	if commit, known := p.Decision(unacked); !known || !commit {
		t.Error("unacknowledged decision must survive retirement of others")
	}
	if p.DecisionCount() != 1 {
		t.Errorf("decision count = %d, want 1", p.DecisionCount())
	}
	recs, _ := log.ReadAll()
	if recs[len(recs)-1].Type != wal.RecEnd || recs[len(recs)-1].Tx != acked {
		t.Errorf("end record not appended: last = %+v", recs[len(recs)-1])
	}
}

// TestLazyDecisionRecord: a decision delivered after the coordinator's reply
// is logged as a Lazy record; one delivered on the client path is not.
func TestLazyDecisionRecord(t *testing.T) {
	log := wal.NewMemory()
	p := NewParticipant("S2", log, newApplier())
	for seq, lazy := range map[uint64]bool{1: true, 2: false} {
		tx := model.TxID{Site: "S1", Seq: seq}
		handle := p.HandleDecision
		if lazy {
			handle = p.HandleLazyDecision
		}
		if err := handle(tx, true); err != nil {
			t.Fatal(err)
		}
		recs, _ := log.ReadAll()
		if last := recs[len(recs)-1]; last.Type != wal.RecDecision || last.Tx != tx || last.Lazy != lazy {
			t.Errorf("decision for %s logged as %+v, want lazy %v", tx, last, lazy)
		}
	}
}

// TestRestoreDecisionsReplaysRetirement: WAL replay must retire decisions
// whose end record is retained, and keep those without one.
func TestRestoreDecisionsReplaysRetirement(t *testing.T) {
	ended := model.TxID{Site: "S1", Seq: 1}
	open := model.TxID{Site: "S1", Seq: 2}
	p := NewParticipant("S1", wal.NewMemory(), newApplier())
	// Snapshot-seeded entry for the ended transaction: the end record
	// retained above the snapshot horizon must still retire it.
	p.SeedDecisions(map[model.TxID]bool{ended: true})
	p.RestoreDecisions([]wal.Record{
		{Type: wal.RecDecision, Tx: open, Commit: false},
		{Type: wal.RecEnd, Tx: ended},
	})
	if _, tabled := p.DecisionTable()[ended]; tabled {
		t.Error("replayed end record did not retire the decision")
	}
	if commit, known := p.Decision(open); !known || commit {
		t.Error("open decision lost or flipped during replay")
	}
}

// termState reports tx's commit-protocol state at p: its decision if one is
// known, else its live termination state, else StateNone.
func (p *Participant) termState(tx model.TxID) uint8 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if commit, ok := p.decisions[tx]; ok {
		if commit {
			return StateCommitted
		}
		return StateAborted
	}
	if st, ok := p.states[tx]; ok {
		return st.state
	}
	return StateNone
}
