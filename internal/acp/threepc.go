package acp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ThreePC is three-phase commit with quorum-based (E3PC-style) termination:
// 2PC with a pre-commit round inserted between voting and the decision.
// The pre-commit round is durable at participants, and the coordinator may
// decide commit only once a MAJORITY of the electorate has forced its
// pre-commit — that majority is the commit quorum every later termination
// election must intersect, which is what keeps a crashed-and-recovered
// member (or a re-forming partition) from terminating against the
// coordinator's decision. A cohort that loses its coordinator — or a
// coordinator that cannot assemble the pre-commit quorum — terminates
// through the participants' quorum termination protocol
// (Participant.Resolve), never unilaterally.
type ThreePC struct{}

// Name implements Protocol.
func (ThreePC) Name() string { return "3pc" }

// ThreePhase implements Protocol.
func (ThreePC) ThreePhase() bool { return true }

// Commit implements Protocol.
func (ThreePC) Commit(ctx context.Context, c Cohort, log wal.Log, opts Options, req Request, onDecision func(bool)) (bool, Tail, error) {
	opts = opts.withDefaults()
	act := trace.FromContext(ctx)
	prep := act.StartSpan(trace.StagePrepare, "3pc votes")
	commit, cohort, voteErr := collectVotes(ctx, c, opts, req, true, "")
	prep.End()
	if commit && len(cohort) == 0 {
		return commitReadOnly(onDecision)
	}

	if !commit {
		// No pre-commit was ever sent, so no quorum termination can reach
		// a commit pre-decision (commit needs a pre-committed member at
		// the highest ballot, and none exists at any): the abort is safe
		// to decide unilaterally, exactly like 2PC's vote-phase abort.
		dec := act.StartSpan(trace.StageDecide, "3pc abort")
		err := log.Append(wal.Record{Type: wal.RecDecision, Tx: req.Tx, Commit: false})
		dec.End()
		if err != nil {
			return false, nil, fmt.Errorf("acp: 3pc decision log: %w", err)
		}
		if onDecision != nil {
			onDecision(false)
		}
		tail := newTail(c, log, opts, req, cohort, false)
		if voteErr != nil {
			return false, tail, voteErr
		}
		return false, tail, model.Abortf(model.AbortACP, "3pc: aborted")
	}

	// Phase 2: pre-commit broadcast. An ack means the participant FORCED
	// its pre-committed state. The electorate equals the phase-2 cohort on
	// the all-yes path (read-only voters were excluded from both), so the
	// quorum is counted over the cohort. The pre-commit round is part of
	// reaching the decision, so it falls under the decide span.
	dec := act.StartSpan(trace.StageDecide, "3pc pre-commit+decision")
	acked := broadcastPreCommit(ctx, c, opts, req, cohort)
	if quorum := len(cohort)/2 + 1; acked < quorum {
		// The commit quorum did not form — and an abort cannot be decided
		// either: the members that DID force pre-commits could carry a
		// later termination election to commit. The outcome belongs to
		// quorum termination now; the caller must leave the cohort's
		// prepared state alone.
		dec.End()
		return false, nil, ErrInDoubt
	}

	err := log.Append(wal.Record{Type: wal.RecDecision, Tx: req.Tx, Commit: true})
	dec.End()
	if err != nil {
		return false, nil, fmt.Errorf("acp: 3pc decision log: %w", err)
	}
	if onDecision != nil {
		onDecision(true)
	}
	return true, newTail(c, log, opts, req, cohort, true), nil
}

// broadcastPreCommit fans the pre-commit out to the cohort and reports how
// many members acknowledged (= durably pre-committed) within the ack
// timeout.
func broadcastPreCommit(ctx context.Context, c Cohort, opts Options, req Request, cohort []model.SiteID) int {
	acked := make(chan bool, len(cohort))
	for _, site := range cohort {
		go func(site model.SiteID) {
			pctx, cancel := context.WithTimeout(ctx, opts.Ack)
			defer cancel()
			acked <- c.PreCommit(pctx, site, req.Tx) == nil
		}(site)
	}
	// Wait for the round to drain (bounded by opts.Ack per participant).
	deadline := time.After(opts.Ack + 100*time.Millisecond)
	n := 0
	for range cohort {
		select {
		case ok := <-acked:
			if ok {
				n++
			}
		case <-deadline:
			return n
		}
	}
	return n
}
