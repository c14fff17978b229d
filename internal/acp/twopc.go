package acp

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TwoPC is the classic presumed-abort two-phase commit. The coordinator's
// decision record is the commit point; participants that voted yes and hear
// nothing are blocked (orphan transactions) until the coordinator answers a
// decision request — the blocking behaviour experiment E5 measures.
//
// A coordinator that is itself a participant holding writes is not sent a
// prepare: once every other participant voted yes, it forces its prepared
// record together with the decision (Cohort.CommitHome, one force instead of
// two, as in R*). The records are the ones a separate prepare and decision
// would have written, so recovery reads them the same way.
type TwoPC struct{}

// Name implements Protocol.
func (TwoPC) Name() string { return "2pc" }

// ThreePhase implements Protocol.
func (TwoPC) ThreePhase() bool { return false }

// Commit implements Protocol.
func (TwoPC) Commit(ctx context.Context, c Cohort, log wal.Log, opts Options, req Request, onDecision func(bool)) (bool, Tail, error) {
	opts = opts.withDefaults()
	act := trace.FromContext(ctx)
	var home model.SiteID
	if slices.Contains(req.Participants, req.Coordinator) && !slices.Contains(req.Voted, req.Coordinator) &&
		len(req.WritesFor(req.Coordinator)) > 0 {
		home = req.Coordinator
	}
	prep := act.StartSpan(trace.StagePrepare, "2pc votes")
	commit, cohort, voteErr := collectVotes(ctx, c, opts, req, false, home)
	prep.End()

	if commit && home != "" {
		// The home's prepare and the commit decision in one force — the
		// commit point — unless its guards vote no.
		dec := act.StartSpan(trace.StageDecide, "2pc prepare+decision")
		v, err := c.CommitHome(ctx, prepareReq(req, home, false))
		dec.End()
		if err != nil {
			return false, nil, fmt.Errorf("acp: 2pc decision log: %w", err)
		}
		if v.Yes {
			if onDecision != nil {
				onDecision(true)
			}
			return true, newTail(c, log, opts, req, cohort, true), nil
		}
		commit, voteErr = false, model.Abortf(model.AbortACP, "%s voted no: %s", home, v.Reason)
	}
	if commit && len(cohort) == 0 {
		return commitReadOnly(onDecision)
	}

	dec := act.StartSpan(trace.StageDecide, "2pc decision")
	// Force the decision record — the commit point. Under presumed abort an
	// abort decision need not be forced, but logging it keeps the decision
	// table complete for decision-request serving.
	err := log.Append(wal.Record{Type: wal.RecDecision, Tx: req.Tx, Commit: commit})
	dec.End()
	if err != nil {
		return false, nil, fmt.Errorf("acp: 2pc decision log: %w", err)
	}
	if onDecision != nil {
		onDecision(commit)
	}

	tail := newTail(c, log, opts, req, cohort, commit)
	if commit {
		return true, tail, nil
	}
	if voteErr != nil {
		return false, tail, voteErr
	}
	return false, tail, model.Abortf(model.AbortACP, "2pc: aborted")
}

// commitReadOnly finishes a transaction whose participants ALL voted
// read-only: each released its CC state when it voted, none logged a
// prepared record, so there is no phase 2 and nobody can ever ask for the
// outcome. The decision is therefore neither logged nor entered in the
// decision table (the end record would retire it in the same breath) — a
// read-only transaction leaves the coordinator's WAL untouched.
func commitReadOnly(onDecision func(bool)) (bool, Tail, error) {
	if onDecision != nil {
		onDecision(true)
	}
	return true, nil, nil
}

// prepareReq is the phase-1 request for site.
func prepareReq(req Request, site model.SiteID, threePhase bool) wire.PrepareReq {
	var incarnation uint64
	if req.IncarnationFor != nil {
		incarnation = req.IncarnationFor(site)
	}
	return wire.PrepareReq{
		Tx:           req.Tx,
		TS:           req.TS,
		Coordinator:  req.Coordinator,
		Writes:       req.WritesFor(site),
		Participants: req.Participants,
		Voters:       req.Voters,
		ThreePhase:   threePhase,
		Epoch:        req.Epoch,
		Incarnation:  incarnation,
	}
}

// collectVotes runs phase 1 concurrently and reports the decision plus the
// phase-2 cohort (participants that voted read-only are released and
// excluded; participants that voted with their reply, req.Voted, and home —
// a coordinator that prepares with its decision, or "" — are not asked but
// stay in the cohort). The returned error classifies a negative outcome
// (vote no, unreachable participant, coordinator cancellation).
func collectVotes(ctx context.Context, c Cohort, opts Options, req Request, threePhase bool, home model.SiteID) (bool, []model.SiteID, error) {
	type voteResult struct {
		site model.SiteID
		resp wire.VoteResp
		err  error
	}
	var cohort, ask []model.SiteID
	for _, site := range req.Participants {
		if site == home || slices.Contains(req.Voted, site) {
			cohort = append(cohort, site)
		} else {
			ask = append(ask, site)
		}
	}
	results := make(chan voteResult, len(ask))
	for _, site := range ask {
		go func(site model.SiteID) {
			vctx, cancel := context.WithTimeout(ctx, opts.Vote)
			defer cancel()
			resp, err := c.Prepare(vctx, site, prepareReq(req, site, threePhase))
			results <- voteResult{site: site, resp: resp, err: err}
		}(site)
	}

	commit := true
	var cause error
	for range ask {
		r := <-results
		switch {
		case r.err != nil:
			commit = false
			cohort = append(cohort, r.site)
			if cause == nil {
				cause = model.Abortf(model.AbortACP, "prepare at %s failed: %v", r.site, r.err)
			}
		case !r.resp.Yes:
			commit = false
			cohort = append(cohort, r.site)
			if cause == nil {
				cause = model.Abortf(model.AbortACP, "%s voted no: %s", r.site, r.resp.Reason)
			}
		case r.resp.ReadOnly:
			// Released at vote time; no phase 2 for this site.
		default:
			cohort = append(cohort, r.site)
		}
	}
	return commit, cohort, cause
}

// newTail is both protocols' phase 2 after the forced decision (see Tail).
func newTail(c Cohort, log wal.Log, opts Options, req Request, cohort []model.SiteID, commit bool) Tail {
	return func(ctx context.Context, lazy bool) bool {
		if !broadcastDecision(ctx, c, opts, req, cohort, commit, lazy) {
			return false
		}
		// All phase-2 participants acknowledged: no recovery work remains.
		// The end record retires the coordinator's decision entry (via the
		// site's ForceEnd routing), and the end round lets the cohort retire
		// theirs, so checkpoints stop mirroring the dead decision.
		log.Append(wal.Record{Type: wal.RecEnd, Tx: req.Tx, Lazy: lazy}) //nolint:errcheck
		broadcastEnd(ctx, c, opts, req, cohort)
		return true
	}
}

// broadcastEnd sends the cohort-fully-acknowledged signal to the
// participants; each send is bounded by the ack timeout and nothing waits
// for a reply. Losses are harmless — see Cohort.End.
func broadcastEnd(ctx context.Context, c Cohort, opts Options, req Request, cohort []model.SiteID) {
	for _, site := range cohort {
		ectx, cancel := context.WithTimeout(ctx, opts.Ack)
		c.End(ectx, site, req.Tx) //nolint:errcheck // best-effort
		cancel()
	}
}

// broadcastDecision runs phase 2 concurrently over the voting cohort,
// reporting whether every member acknowledged. Unacknowledged members
// resolve later via decision requests.
func broadcastDecision(ctx context.Context, c Cohort, opts Options, req Request, cohort []model.SiteID, commit, lazy bool) bool {
	acked := make(chan bool, len(cohort))
	for _, site := range cohort {
		go func(site model.SiteID) {
			actx, cancel := context.WithTimeout(ctx, opts.Ack)
			defer cancel()
			acked <- c.Decide(actx, site, req.Tx, commit, lazy) == nil
		}(site)
	}
	all := true
	for range cohort {
		if !<-acked {
			all = false
		}
	}
	return all
}
