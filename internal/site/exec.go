package site

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/acp"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Execute runs a one-shot transaction with this site as its home site. The
// paper's home site "invokes the RCP for each operation in order" (§2.1), one
// quorum round trip after another; a one-shot program hands over all its
// operations at once, so Execute ships them as ONE wave instead (rcp.Plan
// says how, rcp.Protocol.Wave ships it) and then runs the atomic commit
// protocol over every touched site. An attempt that a no-wait leg refused, or
// whose voting leg got no reply, reruns once under a fresh transaction id
// (Txn.rerun) as the plan's OnRefuse or OnLost says. Interactive transactions
// (Begin, then Read/Write/Add as the caller goes) keep the paper's op-by-op
// shape.
func (s *Site) Execute(ctx context.Context, ops []model.Op) model.Outcome {
	t, err := s.Begin(ctx)
	if err != nil {
		return model.Outcome{Committed: false, Cause: model.AbortClient, HomeSite: s.id}
	}
	plan, err := t.wave(ops, rcp.FirstAttempt, "")
	var next rcp.Next
	var avoid model.SiteID
	var lost *rcp.VoteLostError
	switch {
	case errors.Is(err, rcp.ErrWouldBlock):
		next = plan.OnRefuse
	case errors.As(err, &lost):
		next, avoid = plan.OnLost, lost.Site
	}
	if next.Attempt != 0 && t.rerun() {
		s.stats.Add(next.Count, 1)
		_, err = t.wave(ops, next.Attempt, avoid)
	}
	if err != nil {
		return t.Abort()
	}
	return t.Commit()
}

// wave runs a whole one-shot program as one wave, planned as the given
// attempt with avoid (if set) left out of its first round, under one
// operation budget and one op span, and returns its plan.
// Programs the interactive API would reject part-way — an unknown item or
// operation kind, an item both blind-added and read or written — are rejected
// here before any site is touched. A failure dooms the transaction.
func (t *Txn) wave(ops []model.Op, attempt rcp.Attempt, avoid model.SiteID) (rcp.Plan, error) {
	var adds int
	for _, op := range ops {
		switch op.Kind {
		case model.OpRead, model.OpWrite:
		case model.OpAdd:
			adds++
		default:
			t.doomed = model.Abortf(model.AbortClient, "invalid op kind %d", op.Kind)
			return rcp.Plan{}, t.doomed
		}
		if _, ok := t.catalog.Items[op.Item]; !ok {
			t.doomed = model.Abortf(model.AbortClient, "unknown item %s", op.Item)
			return rcp.Plan{}, t.doomed
		}
	}
	for _, op := range ops {
		if adds > 0 && op.Kind != model.OpAdd && slices.ContainsFunc(ops, func(o model.Op) bool { return o.Kind == model.OpAdd && o.Item == op.Item }) {
			t.doomed = model.Abortf(model.AbortClient, "cannot mix blind adds of %s with reads or writes of it in one transaction", op.Item)
			return rcp.Plan{}, t.doomed
		}
	}

	plan := t.rcpProto.Plan(ops, t.s.id, t.catalog.Items, avoid, t.acpProto.ThreePhase(), attempt)
	if plan.Count != 0 {
		t.s.stats.Add(plan.Count, 1)
	}
	// A wave's first round is up to one attempt per site, one after another;
	// then, like an interactive operation, two replacement rounds.
	opCtx, cancel := t.budget(len(t.catalog.Sites) + 2)
	defer cancel()
	sp := t.act.StartSpan(trace.StageOp, "wave")
	reads, err := t.rcpProto.Wave(opCtx, t.s, t.sess, plan)
	sp.End()
	if err != nil {
		t.doomed = err
		return plan, err
	}
	t.reads = reads
	return plan, nil
}

// classify maps an execution error onto the paper's abort-cause taxonomy.
func classify(err error) model.AbortCause {
	switch c := model.CauseOf(err); c {
	case model.AbortNone:
		return model.AbortClient
	case model.AbortClient:
		// Context timeouts during RCP ops count as replication-level
		// failures (copies unreachable). errors.Is, not ==: transports and
		// RPC layers wrap the context error, and a wrapped deadline
		// misclassified as a client abort would hide replication failures
		// from the abort-cause statistics.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return model.AbortRCP
		}
		return model.AbortClient
	default:
		return c
	}
}

// releaseEverywhere discards CC state for an aborted-before-commit
// transaction at every touched site, plus any stray attempted sites where
// a timed-out operation may have succeeded late (KindReleaseTx).
func (s *Site) releaseEverywhere(sess *rcp.Session) {
	for _, site := range append(sess.Participants(), sess.Strays()...) {
		s.releaseAt(site, sess.Tx)
	}
}

// abortEverywhere is releaseEverywhere for a transaction that may hold
// votes cast with a copy operation's reply: a release does not undo a voted
// site's prepared state, so those sites are also told the transaction
// aborted, on a tail the site tracks (acp.Withdraw).
func (s *Site) abortEverywhere(sess *rcp.Session) {
	s.releaseEverywhere(sess)
	if voted := sess.Voted(); len(voted) > 0 {
		s.mu.Lock()
		opts := acp.Options{Vote: s.timeouts.Vote, Ack: s.timeouts.Ack}
		s.mu.Unlock()
		s.runTail(acp.Withdraw(s, opts, sess.Tx, voted), true)
	}
}

// releaseStrays sends releases to attempted-but-unenlisted sites only.
func (s *Site) releaseStrays(sess *rcp.Session) {
	for _, site := range sess.Strays() {
		s.releaseAt(site, sess.Tx)
	}
}

// releaseAt releases one site's CC state for an aborted transaction. The
// local path aborts directly; the remote path acknowledges and retries in
// the background — a release silently lost to a partition or a paused link
// would otherwise strand the remote intent (and its locks) forever, since
// an unprepared transaction has no WAL trace for any recovery path to
// clean up. Attempts are bounded, and the retry loop rides lifeCtx, NOT
// the incarnation's runCtx: a simulated crash must not drop the pending
// releases of already-aborted transactions (the fabric enforces fail-stop
// by discarding a paused site's sends; retries flush after resume). Close
// cancels lifeCtx, so no goroutine outlives the site object.
func (s *Site) releaseAt(site model.SiteID, tx model.TxID) {
	if site == s.id {
		s.mu.Lock()
		ccm := s.ccm
		s.mu.Unlock()
		ccm.Abort(tx)
		return
	}
	life := s.lifeCtx
	go func() {
		for attempt := 0; attempt < 5; attempt++ {
			ctx, cancel := context.WithTimeout(life, time.Second)
			err := s.peer.Call(ctx, site, wire.KindReleaseTx, &wire.ReleaseTxReq{Tx: tx}, nil)
			cancel()
			if err == nil || life.Err() != nil {
				return
			}
			select {
			case <-life.Done():
				return
			case <-time.After(time.Duration(attempt+1) * 200 * time.Millisecond):
			}
		}
		// All attempts exhausted: the remote CC state is stranded until that
		// site's CC janitor presumed-abort-queries us. Count and report it —
		// a silently abandoned release looks exactly like a leak from the
		// outside, and the counter is what distinguishes "the janitor is the
		// cleanup path now" from "releases are being lost".
		s.releasesAbandoned.Add(1)
		log.Printf("site %s: abandoned release of %s at %s after 5 attempts (remote janitor takes over)", s.id, tx, site)
	}()
}

// runTail runs a decided transaction's commit tail (acp.Tail) on the site's
// run context — never the transaction's, which ends with the reply — either
// inline or, when background is set, on a goroutine the site tracks. A crash
// cancels it (fail-stop) and Crash waits it out; Close lets it finish. A
// crashed home runs none: its participants resolve the decision as they
// would after any coordinator crash.
func (s *Site) runTail(tail acp.Tail, background bool) {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	ctx := s.runCtx
	background = background && !s.closing
	if background {
		s.tails++
	}
	s.mu.Unlock()
	run := func() {
		if !tail(ctx, background) {
			s.tailsUnacked.Add(1)
		}
	}
	if !background {
		run()
		return
	}
	go func() {
		run()
		s.mu.Lock()
		if s.tails--; s.tails == 0 {
			s.tailsIdle.Broadcast()
		}
		s.mu.Unlock()
	}()
}

// WaitTails blocks until no commit tail runs in the background here: every
// decision already replied to has been delivered to its cohort, or its tail
// gave up after Timeouts.Ack. Tests use it to read settled state right after
// a commit; clusters call it on every site before closing any.
func (s *Site) WaitTails() {
	s.mu.Lock()
	for s.tails > 0 {
		s.tailsIdle.Wait()
	}
	s.mu.Unlock()
}

// mergeContexts returns a context cancelled when either input is.
func mergeContexts(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// ---- rcp.CopyAccess implementation ----

// Local implements rcp.CopyAccess.
func (s *Site) Local() model.SiteID { return s.id }

// attemptTimeout bounds one remote copy request, so a silent site does not
// consume the whole operation budget: Op for the round trip plus the one Lock
// a live site may spend waiting before it answers (ccStack.admit) — a site
// still queueing for locks must get to report its own lock timeout, a CC
// abort, rather than be taken for unreachable and routed around.
func attemptTimeout(t schema.Timeouts) time.Duration { return t.Op + t.Lock }

// budget bounds one logical operation (or wave) that may need the given
// number of remote attempts one after another.
func (t *Txn) budget(attempts int) (context.Context, context.CancelFunc) {
	return context.WithTimeout(t.ctx, time.Duration(attempts)*attemptTimeout(t.timeouts))
}

// CopyBatch implements rcp.CopyAccess: a transaction's copy operations for
// site (a wave's share, or one interactive operation) as one CopyBatch round
// trip, or — for this site's own — inline through the local CCP on the
// transaction's goroutine, waiting where it must unless leg.NoWait. A final
// or vote batch carries the transaction's begin-time epoch for the serving
// site's guards.
func (s *Site) CopyBatch(ctx context.Context, site model.SiteID, sess *rcp.Session, ops []model.Op, leg rcp.Leg) (rcp.BatchReply, error) {
	if site == s.id {
		s.mu.Lock()
		st := s.stackLocked()
		s.mu.Unlock()
		res := make([]rcp.CopyResult, len(ops))
		if done, _ := st.admit(ctx, sess.Tx, sess.TS, ops, !leg.NoWait, res); !done {
			st.ccm.Abort(sess.Tx)
			return rcp.BatchReply{}, rcp.ErrWouldBlock
		}
		s.recordReads(sess.Tx, ops, res)
		return rcp.BatchReply{Results: res, Incarnation: st.incarnation}, nil
	}
	s.mu.Lock()
	attempt := attemptTimeout(s.timeouts)
	s.mu.Unlock()
	actx, cancel := context.WithTimeout(ctx, attempt)
	defer cancel()
	req := &wire.CopyBatchReq{Tx: sess.Tx, TS: sess.TS, Ops: ops, Final: leg.Final, NoWait: leg.NoWait, Vote: leg.Vote}
	if leg.Final || leg.Vote {
		req.Epoch = sess.Epoch
	}
	if leg.Vote {
		req.Cohort, req.Floors = leg.Cohort, leg.Floors
	}
	resp, err := wire.Call[wire.CopyBatchResp](actx, s.peer, site, wire.KindCopyBatch, req)
	s.stats.Add(monitor.RoundTrips, 1)
	if err != nil {
		return rcp.BatchReply{}, err
	}
	s.clock.Witness(model.Timestamp{Time: resp.Clock, Site: site})
	if resp.WouldBlock {
		return rcp.BatchReply{}, rcp.ErrWouldBlock
	}
	if len(resp.Results) != len(ops) {
		return rcp.BatchReply{}, fmt.Errorf("site %s answered %d of %d batched operations", site, len(resp.Results), len(ops))
	}
	rep := rcp.BatchReply{Results: make([]rcp.CopyResult, len(ops)), Incarnation: resp.Incarnation, Released: resp.Released, Voted: resp.Voted}
	for i := range resp.Results {
		r := &resp.Results[i]
		rep.Results[i] = rcp.CopyResult{Value: r.Value, Version: r.Version, Err: r.Err()}
	}
	return rep, nil
}

// ---- acp.Cohort implementation ----

// Prepare implements acp.Cohort.
func (s *Site) Prepare(ctx context.Context, site model.SiteID, req wire.PrepareReq) (wire.VoteResp, error) {
	if site == s.id {
		return s.votePrepare(req), nil
	}
	resp, err := wire.Call[wire.VoteResp](ctx, s.peer, site, wire.KindPrepare, &req)
	s.stats.Add(monitor.RoundTrips, 1)
	if err != nil {
		return wire.VoteResp{}, err
	}
	return *resp, nil
}

// CommitHome implements acp.Cohort: this site coordinates req.Tx and holds
// writes for it, and every other participant voted yes. Its prepare guards,
// the one force of its prepared record with the commit decision, and the
// adoption of the commit run as one unit under the site gate's read side,
// like votePrepare's guards and force. A failed guard votes no and forces
// nothing.
func (s *Site) CommitHome(_ context.Context, req wire.PrepareReq) (wire.VoteResp, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	if reason := s.prepareGuard(req.Tx, req.Incarnation, req.Epoch, writeItems(req.Writes)); reason != "" {
		return wire.VoteResp{Yes: false, Reason: reason}, nil
	}
	if err := part.PrepareCommit(req); err != nil {
		return wire.VoteResp{}, err
	}
	s.stats.Add(monitor.HomeForces, 1)
	return wire.VoteResp{Yes: true}, nil
}

// writeItems lists the items of a write set.
func writeItems(writes []model.WriteRecord) []model.ItemID {
	items := make([]model.ItemID, len(writes))
	for i, w := range writes {
		items[i] = w.Item
	}
	return items
}

// votePrepare validates phase 1 before handing it to the participant. Four
// guards close the lost-protection window between copy operations and
// prepare:
//
//   - the incarnation fence: the prepare echoes the incarnation number
//     this site reported when the transaction first operated here; a crash
//     recovery (or live rebuild) in between bumped it, so the CC
//     protection backing this prepare is gone — vote no, deterministically
//     and regardless of what state the new incarnation happens to hold;
//   - the epoch fence: a transaction begun under an epoch older than this
//     site's last live rebuild votes no (Site.fence);
//   - the release tombstone: a transaction this site already released (an
//     abort, or the CC janitor's presumed-abort cleanup) must not prepare —
//     its read locks are gone, so even a read-only yes could commit a
//     stale read;
//   - intent validation: the CC manager must still buffer a pre-write
//     intent for every item in the shipped write set.
//
// All guards are skipped for transactions the participant already tracks
// (duplicate prepares, recovered in-doubt state, recorded decisions) —
// those are the participant's own idempotency paths.
//
// The guards and the participant's force-write run as ONE unit under the
// site gate's read side: a live rebuild takes the gate's write side, so it
// either completes before the guards read the (new) fence and CC manager,
// or waits until the prepare has fully forced and registered — it can
// never interleave between a passed check and the force, which would let
// an unprotected prepare slip into the new stack. (The CC janitor's
// check-then-release runs under the gate's write side for the same
// reason.)
func (s *Site) votePrepare(req wire.PrepareReq) wire.VoteResp {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	if known := part.Prepared(req.Tx); !known {
		if _, decided := part.Decision(req.Tx); !decided {
			if reason := s.prepareGuard(req.Tx, req.Incarnation, req.Epoch, writeItems(req.Writes)); reason != "" {
				return wire.VoteResp{Yes: false, Reason: reason}
			}
		}
	}
	return part.HandlePrepare(req)
}

// prepareGuard runs the prepare's guards for tx (see votePrepare) and returns
// why the site must vote no, or "" when they pass: incarnation is the stack
// incarnation that admitted tx's operations here (0 skips the fence), epoch
// the catalog epoch tx began under, and items the write set whose intents the
// CC manager must still buffer. The read-only fold runs the same guards.
func (s *Site) prepareGuard(tx model.TxID, incarnation, epoch uint64, items []model.ItemID) string {
	s.mu.Lock()
	fence, cur, ccm := s.fence, s.incarnation, s.ccm
	released := s.released.has(tx)
	s.mu.Unlock()
	switch {
	case incarnation != 0 && incarnation != cur:
		return fmt.Sprintf("incarnation fence: transaction operated under incarnation %d, site is at %d", incarnation, cur)
	case epoch < fence:
		return fmt.Sprintf("epoch fence: transaction epoch %d < rebuild epoch %d", epoch, fence)
	case released:
		return "transaction already released at this site"
	case len(items) > 0 && !ccm.HoldsIntents(tx, items):
		return "pre-write intents lost (crash or reconfiguration between pre-write and prepare)"
	}
	return ""
}

// PreCommit implements acp.Cohort: a nil return promises the participant
// FORCED its pre-committed state (the coordinator's commit quorum counts
// on it).
func (s *Site) PreCommit(ctx context.Context, site model.SiteID, tx model.TxID) error {
	if site == s.id {
		return s.handlePreCommit(tx)
	}
	err := s.peer.Call(ctx, site, wire.KindPreCommit, &wire.PreCommitReq{Tx: tx}, nil)
	s.stats.Add(monitor.RoundTrips, 1)
	return err
}

// handlePreCommit forces the participant's pre-commit transition under the
// site gate's read side (like every record-forcing path, so reconfiguration
// and fuzzy snapshots observe a quiescent record stream).
func (s *Site) handlePreCommit(tx model.TxID) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	return part.HandlePreCommit(tx)
}

// handleTermQuery serves a quorum-termination election query under the
// gate's read side (it may force a RecElect promise).
func (s *Site) handleTermQuery(tx model.TxID, ballot model.Ballot) wire.TermQueryResp {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	return part.HandleTermQuery(tx, ballot)
}

// handlePreDecide serves a quorum-termination pre-decision under the
// gate's read side (it forces a RecPreDecide on acceptance).
func (s *Site) handlePreDecide(tx model.TxID, ballot model.Ballot, commit bool) wire.TermPreDecideResp {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	return part.HandlePreDecide(tx, ballot, commit)
}

// Decide implements acp.Cohort.
func (s *Site) Decide(ctx context.Context, site model.SiteID, tx model.TxID, commit, lazy bool) error {
	if site == s.id {
		s.mu.Lock()
		part := s.part
		s.mu.Unlock()
		return part.HandleDecision(tx, commit)
	}
	err := s.peer.Call(ctx, site, wire.KindDecision, &wire.DecisionMsg{Tx: tx, Commit: commit, Lazy: lazy}, nil)
	s.stats.Add(monitor.RoundTrips, 1)
	return err
}

// End implements acp.Cohort: the cohort-fully-acknowledged notification.
// Fire-and-forget (Cast, no response awaited) — the participant retires its
// decision-table entry on receipt; a lost message only leaves the entry
// lingering until the site restarts without it.
func (s *Site) End(ctx context.Context, site model.SiteID, tx model.TxID) error {
	if site == s.id {
		s.mu.Lock()
		part := s.part
		s.mu.Unlock()
		part.Retire(tx)
		return nil
	}
	return s.peer.Cast(ctx, site, wire.KindEndTx, &wire.EndTxMsg{Tx: tx})
}

// ---- acp.Resolver implementation ----

// QueryDecision implements acp.Resolver.
func (s *Site) QueryDecision(ctx context.Context, site model.SiteID, tx model.TxID, threePhase bool) (bool, bool, error) {
	if site == s.id {
		commit, known := s.localDecision(tx, threePhase)
		return known, commit, nil
	}
	resp, err := wire.Call[wire.DecisionResp](ctx, s.peer, site, wire.KindDecisionReq, &wire.DecisionReq{Tx: tx, ThreePhase: threePhase})
	s.stats.Add(monitor.RoundTrips, 1)
	if err != nil {
		return false, false, err
	}
	return resp.Known, resp.Commit, nil
}

// QueryTermination implements acp.Resolver (the election leg of quorum
// termination), with a loopback fast path so the initiator's own state
// participates uniformly.
func (s *Site) QueryTermination(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot) (wire.TermQueryResp, error) {
	if site == s.id {
		return s.handleTermQuery(tx, ballot), nil
	}
	resp, err := wire.Call[wire.TermQueryResp](ctx, s.peer, site, wire.KindTermQuery, &wire.TermQueryReq{Tx: tx, Ballot: ballot})
	s.stats.Add(monitor.RoundTrips, 1)
	if err != nil {
		return wire.TermQueryResp{}, err
	}
	return *resp, nil
}

// SendPreDecide implements acp.Resolver (the pre-decision leg of quorum
// termination).
func (s *Site) SendPreDecide(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot, commit bool) (wire.TermPreDecideResp, error) {
	if site == s.id {
		return s.handlePreDecide(tx, ballot, commit), nil
	}
	resp, err := wire.Call[wire.TermPreDecideResp](ctx, s.peer, site, wire.KindTermPreDecide, &wire.TermPreDecideReq{Tx: tx, Ballot: ballot, Commit: commit})
	s.stats.Add(monitor.RoundTrips, 1)
	if err != nil {
		return wire.TermPreDecideResp{}, err
	}
	return *resp, nil
}

// SendDecision implements acp.Resolver: deliver a termination decision.
func (s *Site) SendDecision(ctx context.Context, site model.SiteID, tx model.TxID, commit bool) error {
	return s.Decide(ctx, site, tx, commit, false)
}

// localDecision answers a decision request against local knowledge,
// implementing presumed abort for 2PC transactions this site coordinated:
// if we coordinated tx, it is not currently active, and no decision is
// logged, the transaction must have aborted (a commit is always logged
// before being announced).
//
// Presumed abort is NEVER sound for a 3PC transaction: the cohort can
// commit by quorum termination without its coordinator, so a recovered
// coordinator with no record — even one that was never a cohort member and
// so holds no in-doubt state to warn it — must answer "unknown" and let
// quorum termination decide the outcome. The requester marks 3PC queries
// (it knows from its prepared record); the in-doubt check below
// additionally covers member coordinators queried without the mark.
func (s *Site) localDecision(tx model.TxID, threePhase bool) (commit, known bool) {
	s.mu.Lock()
	part := s.part
	active := s.activeCoord[tx]
	s.mu.Unlock()
	if c, ok := part.Decision(tx); ok {
		return c, true
	}
	if active {
		return false, false // still deciding: caller must wait
	}
	if tx.Site == s.id {
		if threePhase || part.InDoubtThreePhase(tx) {
			return false, false // 3PC: the cohort may yet commit without us
		}
		return false, true // presumed abort
	}
	return false, false
}

var errCrashed = fmt.Errorf("site crashed")
