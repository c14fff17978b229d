package acp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Applier installs or discards a decided transaction's effects at a site.
// cc.Manager satisfies this interface.
type Applier interface {
	Commit(tx model.TxID, writes []model.WriteRecord) error
	Abort(tx model.TxID)
}

// Resolver lets a blocked participant query other sites for an outcome.
// The site implements it over the wire layer (with loopback fast paths for
// itself, so the initiator's own state participates uniformly).
type Resolver interface {
	// QueryDecision asks site for the outcome of tx (a DecisionReq).
	// threePhase suppresses presumed abort at the answerer — a 3PC cohort
	// can commit by quorum without its coordinator, so "no record" must
	// answer unknown, not abort.
	QueryDecision(ctx context.Context, site model.SiteID, tx model.TxID, threePhase bool) (known, commit bool, err error)
	// QueryTermination runs quorum termination's election step at site:
	// ask it to promise ballot and report its state (TermQueryReq).
	QueryTermination(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot) (wire.TermQueryResp, error)
	// SendPreDecide delivers the elected initiator's pre-decision to site
	// and reports whether it was accepted (TermPreDecideReq).
	SendPreDecide(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot, commit bool) (wire.TermPreDecideResp, error)
	// SendDecision delivers a termination decision to site (KindDecision).
	SendDecision(ctx context.Context, site model.SiteID, tx model.TxID, commit bool) error
}

// Participant is a site's half of the commit protocols: it votes on
// prepares, holds prepared (in-doubt) transactions, applies decisions
// exactly once, serves termination-state queries, and resolves in-doubt
// transactions after coordinator failures. All methods are safe for
// concurrent use.
type Participant struct {
	self model.SiteID
	log  wal.Log
	// gate, when set, is the checkpoint manager's snapshot interlock: every
	// decision's force-write + install runs under its read side, so a fuzzy
	// snapshot (taken under the write side) never captures a decision record
	// as durable without its effects. Set before the site serves traffic;
	// nil means no checkpointing.
	gate *sync.RWMutex

	mu        sync.Mutex
	applier   Applier
	states    map[model.TxID]*ptx
	decisions map[model.TxID]bool
	// ended remembers recently retired outcomes for a bounded window.
	// Retirement means every cohort member acknowledged — but a stale
	// termination query (or decision request) can still be in flight, and
	// answering it from NO memory at all would let a no-trace unilateral
	// abort (see HandleTermQuery) contradict the retired commit.
	ended map[model.TxID]endedOutcome
	// endedPruned rate-limits the ended sweep: above the size threshold
	// only entries past the retention can go, so sweeping more than once
	// per interval would be O(map) scans that delete nothing.
	endedPruned time.Time
}

type endedOutcome struct {
	commit bool
	at     time.Time
}

// endedRetention bounds how long retired outcomes stay answerable; stale
// queries are network-delay-bounded, so a generous minute is plenty.
const endedRetention = time.Minute

type ptx struct {
	state      uint8
	req        wire.PrepareReq
	preparedAt time.Time
	// ea is the highest termination ballot this member promised (forced as
	// RecElect); eb the ballot of the last pre-decision it accepted
	// (forced as RecPreDecide). The live coordinator's pre-commit round is
	// ballot {0, coordinator}; elections start at attempt 1.
	ea, eb model.Ballot
	// nextN seeds this member's next termination attempt number when it
	// initiates (volatile: it only affects liveness, never safety — a
	// reused attempt number is fenced by the promised-ballot order).
	nextN uint64
	// deferred counts termination attempts this member has yielded to a
	// lower-id initiator it promised (volatile leader preference; see
	// deferToLowerInitiator).
	deferred uint8
}

// NewParticipant builds the participant half for a site. applier is the
// site's CC manager (it installs writes and releases CC state).
func NewParticipant(self model.SiteID, log wal.Log, applier Applier) *Participant {
	return &Participant{
		self:      self,
		log:       log,
		applier:   applier,
		states:    make(map[model.TxID]*ptx),
		decisions: make(map[model.TxID]bool),
		ended:     make(map[model.TxID]endedOutcome),
	}
}

// SetApplier swaps the applier (site recovery replaces the CC manager).
func (p *Participant) SetApplier(a Applier) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applier = a
}

// UseGate installs the checkpoint manager's snapshot interlock. Must be
// called before the participant serves traffic.
func (p *Participant) UseGate(g *sync.RWMutex) { p.gate = g }

func (p *Participant) gateRLock() {
	if p.gate != nil {
		p.gate.RLock()
	}
}

func (p *Participant) gateRUnlock() {
	if p.gate != nil {
		p.gate.RUnlock()
	}
}

// HandlePrepare processes phase 1: force the prepared record and vote yes.
// A transaction already decided here votes according to that decision. A
// participant holding no writes votes "read" (presumed-abort read-only
// optimization): it releases its CC state at once, logs nothing, and takes
// no part in phase 2 — it can never become an orphan.
func (p *Participant) HandlePrepare(req wire.PrepareReq) wire.VoteResp {
	p.mu.Lock()
	if commit, ok := p.decisions[req.Tx]; ok {
		p.mu.Unlock()
		return wire.VoteResp{Yes: commit, Reason: "already decided"}
	}
	if commit, ok := p.endedLocked(req.Tx); ok {
		p.mu.Unlock()
		return wire.VoteResp{Yes: commit, Reason: "already decided (retired)"}
	}
	if _, dup := p.states[req.Tx]; dup {
		p.mu.Unlock()
		return wire.VoteResp{Yes: true, Reason: "already prepared"}
	}
	applier := p.applier
	p.mu.Unlock()

	if len(req.Writes) == 0 {
		if applier != nil {
			applier.Abort(req.Tx) // release read locks / clear nothing-to-install state
		}
		return wire.VoteResp{Yes: true, ReadOnly: true}
	}

	// Force the prepared record before voting yes (the WAL rule that makes
	// the yes-vote binding across crashes). The site's production entry
	// point (votePrepare) holds the checkpoint gate's read side around
	// this whole call, so a live reconfiguration quiescing the pipeline
	// under the gate's write side cannot interleave between the site's
	// prepare guards and this force — the gate is deliberately NOT taken
	// here (it is not reentrant).
	if err := p.log.Append(preparedRecord(req)); err != nil {
		return wire.VoteResp{Yes: false, Reason: "log force failed: " + err.Error()}
	}

	p.mu.Lock()
	p.states[req.Tx] = &ptx{state: StatePrepared, req: req, preparedAt: time.Now()}
	p.mu.Unlock()
	return wire.VoteResp{Yes: true}
}

// PrepareCommit is the coordinator's own prepare and commit decision in one
// force (see Cohort.CommitHome): it appends req's prepared record and the
// commit decision with one AppendBatch, then adopts the commit — decision
// table entry plus local install — exactly as a prepare followed by
// ForceDecision would. Recovery finds the same two records either way. The
// caller holds the checkpoint gate's read side around its guards and this
// call (the gate is not reentrant, so it is not taken here). Only the force
// can fail the call; a local install error is left to recovery's redo, as in
// ForceDecision.
func (p *Participant) PrepareCommit(req wire.PrepareReq) error {
	if err := p.log.AppendBatch([]wal.Record{
		preparedRecord(req),
		{Type: wal.RecDecision, Tx: req.Tx, Commit: true},
	}); err != nil {
		return err
	}
	p.mu.Lock()
	p.states[req.Tx] = &ptx{state: StatePrepared, req: req, preparedAt: time.Now()}
	p.mu.Unlock()
	p.decide(req.Tx, true, false, false) //nolint:errcheck
	return nil
}

// preparedRecord is the prepared record HandlePrepare forces for req.
func preparedRecord(req wire.PrepareReq) wal.Record {
	return wal.Record{
		Type:         wal.RecPrepared,
		Tx:           req.Tx,
		TS:           req.TS,
		Coordinator:  req.Coordinator,
		Participants: req.Participants,
		Voters:       req.Voters,
		ThreePhase:   req.ThreePhase,
		Writes:       req.Writes,
	}
}

// HandlePreCommit moves a prepared transaction to the 3PC pre-committed
// state — durably: the transition is a RecPreDecide at the coordinator's
// ballot {0, coordinator}, forced before the ack, so a recovered member
// rejoins termination with its logged pre-commit instead of a presumed-
// abort guess. The ack IS the commit-quorum vote: the coordinator may
// decide commit on a majority of acks, so only a member that really is
// pre-committed (now, durably — or already decided commit) may return nil.
// A member with no state, an abort decision, or an accepted abort
// pre-decision must error: counting it would let the commit quorum overlap
// a termination abort.
func (p *Participant) HandlePreCommit(tx model.TxID) error {
	p.mu.Lock()
	if commit, ok := p.decisions[tx]; ok {
		p.mu.Unlock()
		if commit {
			return nil
		}
		return fmt.Errorf("acp: pre-commit of %v: already aborted", tx)
	}
	if commit, ok := p.endedLocked(tx); ok {
		p.mu.Unlock()
		if commit {
			return nil
		}
		return fmt.Errorf("acp: pre-commit of %v: already aborted", tx)
	}
	st, ok := p.states[tx]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("acp: pre-commit of %v: no prepared state", tx)
	}
	switch st.state {
	case StatePreCommitted:
		p.mu.Unlock()
		return nil // idempotent re-ack
	case StatePrepared:
	default:
		p.mu.Unlock()
		return fmt.Errorf("acp: pre-commit of %v: state is %s", tx, StateName(st.state))
	}
	// The coordinator's round is a pre-decision at ballot {0, coordinator}
	// and is fenced by the member's election promise exactly like any
	// other: once this member helped elect a termination attempt, acking
	// the (delayed) coordinator round would let the commit quorum overlap
	// an attempt that read this member as merely prepared — the attempt
	// could pre-decide abort from a quorum whose members then ack
	// pre-commits, splitting the decision.
	ballot := model.Ballot{N: 0, Site: st.req.Coordinator}
	if ballot.Less(st.ea) {
		ea := st.ea
		p.mu.Unlock()
		return fmt.Errorf("acp: pre-commit of %v: member promised election ballot %v", tx, ea)
	}
	p.mu.Unlock()

	if err := p.log.Append(wal.Record{Type: wal.RecPreDecide, Tx: tx, Commit: true, Ballot: ballot}); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok = p.states[tx]
	if !ok {
		if commit, decided := p.decisions[tx]; decided && commit {
			return nil
		}
		return fmt.Errorf("acp: pre-commit of %v: decided during force", tx)
	}
	if ballot.Less(st.ea) {
		// An election raced past the log force: the promise wins. The
		// logged pre-decision stands for recovery (logged-means-accepted,
		// and it sits below the promised ballot so any attempt's evidence
		// outranks it) but the ack — the commit-quorum vote — must not go
		// out.
		return fmt.Errorf("acp: pre-commit of %v: member promised election ballot %v", tx, st.ea)
	}
	if st.state == StatePrepared {
		st.state = StatePreCommitted
		if st.ea.Less(ballot) {
			st.ea = ballot
		}
		if st.eb.Less(ballot) {
			st.eb = ballot
		}
	}
	if st.state != StatePreCommitted {
		return fmt.Errorf("acp: pre-commit of %v: state moved to %s", tx, StateName(st.state))
	}
	return nil
}

// HandleTermQuery serves quorum termination's election step: promise the
// ballot (durably — a forgotten promise could let this member accept a
// stale pre-decision after helping elect a newer attempt) and report the
// member's state and last-accepted ballot.
//
// A member with NO trace of the transaction never voted yes (a yes vote is
// forced before it is cast, and recovery restores it; recently retired
// outcomes are answered from the ended window) — and in 3PC no commit can
// exist anywhere without EVERY voter's yes. It therefore unilaterally
// decides abort, durably, and answers with that decision: durability is
// what makes the answer binding — a later prepare for the same transaction
// finds the abort and votes no, so the member can never retroactively
// supply the yes vote a racing coordinator would need to reach commit.
// (This is also what keeps termination live when prepares were lost to a
// crash: members that cannot accept pre-decisions — they hold no prepared
// record — would otherwise starve the decision quorum forever.)
func (p *Participant) HandleTermQuery(tx model.TxID, ballot model.Ballot) wire.TermQueryResp {
	p.mu.Lock()
	if commit, ok := p.decisions[tx]; ok {
		p.mu.Unlock()
		return wire.TermQueryResp{Decided: true, Commit: commit}
	}
	if commit, ok := p.endedLocked(tx); ok {
		p.mu.Unlock()
		return wire.TermQueryResp{Decided: true, Commit: commit}
	}
	st, ok := p.states[tx]
	if !ok {
		p.mu.Unlock()
		if err := p.decide(tx, false, true, false); err != nil {
			return wire.TermQueryResp{Accepted: false}
		}
		return wire.TermQueryResp{Decided: true, Commit: false}
	}
	if !st.ea.Less(ballot) {
		resp := wire.TermQueryResp{Accepted: false, EA: st.ea, State: st.state, EB: st.eb}
		p.mu.Unlock()
		return resp
	}
	p.mu.Unlock()

	if err := p.log.Append(wal.Record{Type: wal.RecElect, Tx: tx, Ballot: ballot}); err != nil {
		return wire.TermQueryResp{Accepted: false}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if commit, ok := p.decisions[tx]; ok {
		return wire.TermQueryResp{Decided: true, Commit: commit}
	}
	if commit, ok := p.endedLocked(tx); ok {
		return wire.TermQueryResp{Decided: true, Commit: commit}
	}
	st, ok = p.states[tx]
	if !ok {
		// Decided-and-retired during the force; the retry answers exactly.
		return wire.TermQueryResp{Accepted: false}
	}
	if st.ea.Less(ballot) {
		st.ea = ballot
	} else if st.ea != ballot {
		// A higher promise raced past the log force; honor it.
		return wire.TermQueryResp{Accepted: false, EA: st.ea, State: st.state, EB: st.eb}
	}
	return wire.TermQueryResp{Accepted: true, EA: st.ea, State: st.state, EB: st.eb}
}

// HandlePreDecide serves quorum termination's pre-decision: a member that
// still honors the ballot forces the pre-decision (its new eb) and moves to
// pre-committed / pre-aborted. Members with no state never accept (they
// hold no prepared record to attach the pre-decision to), and stale
// ballots are rejected by the promised-ballot fence.
func (p *Participant) HandlePreDecide(tx model.TxID, ballot model.Ballot, commit bool) wire.TermPreDecideResp {
	p.mu.Lock()
	if c, ok := p.decisions[tx]; ok {
		p.mu.Unlock()
		return wire.TermPreDecideResp{Decided: true, Commit: c}
	}
	if c, ok := p.endedLocked(tx); ok {
		p.mu.Unlock()
		return wire.TermPreDecideResp{Decided: true, Commit: c}
	}
	st, ok := p.states[tx]
	if !ok || ballot.Less(st.ea) {
		p.mu.Unlock()
		return wire.TermPreDecideResp{Accepted: false}
	}
	p.mu.Unlock()

	if err := p.log.Append(wal.Record{Type: wal.RecPreDecide, Tx: tx, Commit: commit, Ballot: ballot}); err != nil {
		return wire.TermPreDecideResp{Accepted: false}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.decisions[tx]; ok {
		return wire.TermPreDecideResp{Decided: true, Commit: c}
	}
	st, ok = p.states[tx]
	if !ok || ballot.Less(st.ea) {
		return wire.TermPreDecideResp{Accepted: false}
	}
	st.ea, st.eb = ballot, ballot
	if commit {
		st.state = StatePreCommitted
	} else {
		st.state = StatePreAborted
	}
	return wire.TermPreDecideResp{Accepted: true}
}

// HandleDecision applies the final outcome exactly once and acknowledges.
// It is idempotent against duplicate deliveries, and it still applies when
// the outcome was already recorded without application (the coordinator
// records its decision in the table before delivering it to its own
// participant half). The force-write and the install happen under the
// checkpoint gate as one unit.
func (p *Participant) HandleDecision(tx model.TxID, commit bool) error {
	return p.handleDecision(tx, commit, false)
}

// HandleLazyDecision is HandleDecision for a decision whose coordinator has
// already replied to its client: only the coordinator's commit tail waits
// for this ack, so the decision record is forced lazily (wal.Record.Lazy).
func (p *Participant) HandleLazyDecision(tx model.TxID, commit bool) error {
	return p.handleDecision(tx, commit, true)
}

func (p *Participant) handleDecision(tx model.TxID, commit, lazy bool) error {
	p.gateRLock()
	defer p.gateRUnlock()
	return p.decide(tx, commit, true, lazy)
}

// ForceDecision is the coordinator's half of the WAL decision rule: it
// forces the decision record (rec.Type must be RecDecision) and adopts the
// outcome locally — decision table entry plus local apply/release — as one
// unit under the checkpoint gate. Without the atomicity a fuzzy snapshot
// could observe the record durable below its horizon while the local
// install is still pending, and compaction would then strand the write set.
//
// Only the log force can fail the call: once the record is durable the
// decision IS the outcome, so a local install error (a write-set/schema
// mismatch) must not make the protocol report an abort or skip phase 2 —
// the write set stays in the WAL and recovery's version-guarded redo
// repairs the store.
func (p *Participant) ForceDecision(rec wal.Record) error {
	p.gateRLock()
	defer p.gateRUnlock()
	if err := p.log.Append(rec); err != nil {
		return err
	}
	p.decide(rec.Tx, rec.Commit, false, false) //nolint:errcheck
	return nil
}

// ForceEnd is the coordinator's transaction-complete rule: it appends the
// end record (rec.Type must be RecEnd) and retires the decision-table entry
// as one unit under the checkpoint gate. RecEnd means every cohort member
// acknowledged the decision, so no peer will ever ask for the outcome again
// — keeping the entry would only make every future snapshot mirror a dead
// decision. The gate atomicity gives recovery a clean invariant: a snapshot
// whose horizon is above the end record's LSN no longer carries the
// decision, and one below it retains the record, whose replay retires the
// entry again (RestoreDecisions).
func (p *Participant) ForceEnd(rec wal.Record) error {
	p.gateRLock()
	defer p.gateRUnlock()
	if err := p.log.Append(rec); err != nil {
		return err
	}
	p.Retire(rec.Tx)
	return nil
}

// Retire drops a fully acknowledged transaction from the decision table,
// remembering the outcome for a bounded window (see Participant.ended).
func (p *Participant) Retire(tx model.TxID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if commit, ok := p.decisions[tx]; ok {
		now := time.Now()
		p.ended[tx] = endedOutcome{commit: commit, at: now}
		if len(p.ended) > 8192 && now.Sub(p.endedPruned) > endedRetention/4 {
			p.endedPruned = now
			cutoff := now.Add(-endedRetention)
			for t, e := range p.ended {
				if e.at.Before(cutoff) {
					delete(p.ended, t)
				}
			}
		}
	}
	delete(p.decisions, tx)
}

// endedLocked looks a recently retired outcome up; callers hold p.mu.
func (p *Participant) endedLocked(tx model.TxID) (commit, ok bool) {
	e, ok := p.ended[tx]
	return e.commit, ok
}

// decide installs an outcome exactly once. logIt selects whether a decision
// record still needs forcing (false when the caller already forced one), and
// lazy whether that record is Lazy. Callers hold the checkpoint gate.
func (p *Participant) decide(tx model.TxID, commit, logIt, lazy bool) error {
	p.mu.Lock()
	st, hasState := p.states[tx]
	_, decided := p.decisions[tx]
	delete(p.states, tx)
	p.decisions[tx] = commit
	applier := p.applier
	p.mu.Unlock()

	if decided && !hasState {
		return nil // true duplicate: already applied (or never prepared here)
	}

	// Log before applying; Store.Apply is version-guarded so replay after a
	// crash between these two steps is idempotent.
	if logIt && !decided {
		if err := p.log.Append(wal.Record{Type: wal.RecDecision, Tx: tx, Commit: commit, Lazy: lazy}); err != nil {
			return err
		}
	}
	if st == nil {
		// Decision for a transaction with no prepared state here (e.g. a
		// retry after completion, or an abort before prepare). Release any
		// CC state just in case.
		if !commit && applier != nil {
			applier.Abort(tx)
		}
		return nil
	}
	if applier == nil {
		return nil
	}
	if commit {
		return applier.Commit(tx, st.req.Writes)
	}
	applier.Abort(tx)
	return nil
}

// Prepared reports whether the participant currently holds in-doubt
// (prepared, undecided) state for tx. Online reconfiguration uses it to
// tell which WAL-recovered in-doubt transactions are already carried in
// memory — those keep their live protocol state (e.g. 3PC pre-committed)
// instead of being reset to freshly-prepared.
func (p *Participant) Prepared(tx model.TxID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.states[tx]
	return ok
}

// InDoubtThreePhase reports whether tx is held in-doubt here under the 3PC
// state machine. Decision serving uses it to suppress presumed abort: a
// 3PC cohort can cooperatively commit without its coordinator, so a
// recovered coordinator must not presume its own in-doubt 3PC transaction
// aborted.
func (p *Participant) InDoubtThreePhase(tx model.TxID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.states[tx]
	return ok && st.req.ThreePhase
}

// Decision reports a locally known outcome (for decision-request serving),
// including recently retired ones: a stale query must never be answered
// worse after retirement than before it.
func (p *Participant) Decision(tx model.TxID) (commit, known bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if commit, known = p.decisions[tx]; known {
		return commit, known
	}
	return p.endedLocked(tx)
}

// RecordDecision notes an already-known outcome in the decision table
// without logging or applying anything. The production coordinator path is
// ForceDecision (which also forces the record and installs locally under
// the checkpoint gate); this remains for protocol-level tests and callers
// that learned an outcome out of band.
func (p *Participant) RecordDecision(tx model.TxID, commit bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.decisions[tx]; !ok {
		p.decisions[tx] = commit
	}
}

// InDoubt lists transactions prepared longer than age ago and still
// undecided — the paper's orphan transactions.
func (p *Participant) InDoubt(age time.Duration) []model.TxID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []model.TxID
	cutoff := time.Now().Add(-age)
	for tx, st := range p.states {
		if st.preparedAt.Before(cutoff) {
			out = append(out, tx)
		}
	}
	return out
}

// InDoubtCount reports the current number of in-doubt transactions.
func (p *Participant) InDoubtCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.states)
}

// Restore re-installs an in-doubt transaction found in the WAL during crash
// recovery. The caller must already have re-protected its write set in the
// CC layer (cc.Manager.Reinstate).
func (p *Participant) Restore(req wire.PrepareReq, threePhase bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	req.ThreePhase = threePhase
	p.states[req.Tx] = &ptx{state: StatePrepared, req: req, preparedAt: time.Now()}
}

// RestoreTermState re-installs a recovered 3PC transaction's logged
// termination state on top of Restore: the last accepted pre-decision
// (pre-committed / pre-aborted, with its ballot eb) and the highest
// promised ballot ea. A logged pre-decision counts as accepted even if the
// pre-crash process never managed to acknowledge it — the standard
// logged-means-accepted rule; claiming less could hide the highest-ballot
// evidence a later election quorum depends on.
func (p *Participant) RestoreTermState(tx model.TxID, state uint8, ea, eb model.Ballot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.states[tx]
	if !ok {
		return
	}
	if state == StatePreCommitted || state == StatePreAborted {
		st.state = state
	}
	if st.eb.Less(eb) {
		st.eb = eb
	}
	if st.ea.Less(ea) {
		st.ea = ea
	}
	if st.ea.Less(st.eb) {
		st.ea = st.eb
	}
}

// RestoreDecisions rebuilds the decision table from WAL records. An end
// record retires its transaction's entry again — the cohort had fully
// acknowledged, so the decision need not be served after recovery either.
func (p *Participant) RestoreDecisions(recs []wal.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range recs {
		switch r.Type {
		case wal.RecDecision:
			p.decisions[r.Tx] = r.Commit
		case wal.RecEnd:
			if commit, ok := p.decisions[r.Tx]; ok {
				p.ended[r.Tx] = endedOutcome{commit: commit, at: time.Now()}
			}
			delete(p.decisions, r.Tx)
		}
	}
}

// DecisionCount reports the decision table's current size (a durability
// gauge: retirement keeps it bounded by the in-flight cohort count).
func (p *Participant) DecisionCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.decisions)
}

// SeedDecisions preloads the decision table from a checkpoint snapshot
// (records compacted below the snapshot's horizon live on only there).
// WAL-derived entries win over snapshot entries, so call this before
// RestoreDecisions.
func (p *Participant) SeedDecisions(decs map[model.TxID]bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for tx, commit := range decs {
		if _, ok := p.decisions[tx]; !ok {
			p.decisions[tx] = commit
		}
	}
}

// DecisionTable returns a copy of the decision table; the checkpoint
// manager embeds it in each snapshot.
func (p *Participant) DecisionTable() map[model.TxID]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[model.TxID]bool, len(p.decisions))
	for tx, commit := range p.decisions {
		out[tx] = commit
	}
	return out
}

// Resolve tries to determine the outcome of an in-doubt transaction:
// first by asking the coordinator (decision request; for 2PC an answering
// coordinator with no record means presumed abort), then by asking peers
// (2PC) or by the quorum-based termination protocol over the electorate
// (3PC). It returns true when the transaction was decided and applied.
func (p *Participant) Resolve(ctx context.Context, r Resolver, tx model.TxID) bool {
	p.mu.Lock()
	st, ok := p.states[tx]
	if !ok {
		p.mu.Unlock()
		return true // already decided
	}
	req := st.req
	threePhase := st.req.ThreePhase
	p.mu.Unlock()

	// The coordinator gets half the budget: a silent one (crashed or cut
	// off) must not leave quorum termination without the time to run.
	qctx, cancel := halfBudget(ctx)
	known, commit, err := r.QueryDecision(qctx, req.Coordinator, tx, threePhase)
	cancel()
	if err == nil && known {
		p.HandleDecision(tx, commit) //nolint:errcheck
		return true
	}

	if !threePhase || len(req.Voters) == 0 {
		// 2PC — or a legacy 3PC prepare recorded before the electorate
		// (Voters) was carried: ask the rest of the cohort; any peer may
		// know the outcome. Legacy 3PC records must NOT quorum-terminate:
		// guessing the electorate from the participant list would count
		// read-only members whose yes vote no commit ever needed — a
		// no-trace unilateral abort from one of them could then contradict
		// a commit the pre-upgrade coordinator decided without today's
		// quorum rule. Known-decision queries block at worst; they never
		// split.
		for _, peer := range req.Participants {
			if peer == p.self || peer == req.Coordinator {
				continue
			}
			if known, commit, err := r.QueryDecision(ctx, peer, tx, threePhase); err == nil && known {
				p.HandleDecision(tx, commit) //nolint:errcheck
				return true
			}
		}
		return false // blocked: an orphan
	}
	return p.terminateQuorum(ctx, r, tx, req)
}

// halfBudget bounds a first step to half of what is left of ctx's deadline.
func halfBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, time.Until(deadline)/2)
}

// terminateQuorum runs quorum-based (E3PC-style) termination for an
// in-doubt 3PC transaction. Unlike the classic cooperative protocol it
// stays safe under partitions and fail-recover:
//
//   - the initiator elects itself with a ballot above every promise it can
//     see, and needs a majority of the electorate to answer (the election
//     quorum) — two concurrent initiators on either side of a partition
//     cannot both proceed past members they share;
//   - commit may only be pre-decided when a member at the highest accepted
//     ballot in the quorum is pre-committed (the coordinator's pre-commit
//     round is ballot {0, coordinator}, so its commit quorum is visible to
//     every election quorum), and abort only otherwise — never against a
//     higher-ballot pre-commit;
//   - the decision is taken only after a majority FORCED the pre-decision
//     (the decision quorum), so a re-forming partition finds durable
//     evidence of the chosen outcome in every future quorum.
//
// Returns true when the transaction was decided and applied here.
func (p *Participant) terminateQuorum(ctx context.Context, r Resolver, tx model.TxID, req wire.PrepareReq) bool {
	voters := req.Voters
	if len(voters) == 0 {
		return false // legacy record: Resolve routes these to decision queries
	}
	quorum := len(voters)/2 + 1

	if p.deferToLowerInitiator(tx) {
		return false // leader preference: let the lower-id initiator finish
	}

	// Pick a ballot above everything this member has seen.
	p.mu.Lock()
	st, ok := p.states[tx]
	if !ok {
		p.mu.Unlock()
		return true // decided meanwhile
	}
	n := st.nextN
	if st.ea.N >= n {
		n = st.ea.N
	}
	n++
	st.nextN = n
	p.mu.Unlock()
	ballot := model.Ballot{N: n, Site: p.self}

	// Election: collect promises and states from the electorate (self
	// included, via the resolver's loopback). Every reachable voter answers
	// at once; a silent one may cost half the remaining budget, not all of
	// it, or the pre-decision round would have none left.
	ectx, cancel := halfBudget(ctx)
	defer cancel()
	type reply struct {
		resp wire.TermQueryResp
		err  error
	}
	replies := make(chan reply, len(voters))
	for _, site := range voters {
		go func(site model.SiteID) {
			resp, err := r.QueryTermination(ectx, site, tx, ballot)
			replies <- reply{resp: resp, err: err}
		}(site)
	}
	var accepted []wire.TermQueryResp
	var maxSeen uint64
	for range voters {
		rep := <-replies
		if rep.err != nil {
			continue
		}
		resp := rep.resp
		if resp.Decided {
			p.adoptDecision(ctx, r, tx, voters, resp.Commit)
			return true
		}
		if resp.EA.N > maxSeen {
			maxSeen = resp.EA.N
		}
		if resp.Accepted {
			accepted = append(accepted, resp)
		}
	}
	p.bumpAttempt(tx, maxSeen)
	if len(accepted) < quorum {
		return false // no election quorum: stay blocked, retry later
	}

	// Pre-decision: commit iff a member at the highest accepted ballot is
	// pre-committed. Members that decided already short-circuited above;
	// StateNone members carry a zero EB and can only support abort.
	var maxEB model.Ballot
	for _, resp := range accepted {
		if maxEB.Less(resp.EB) {
			maxEB = resp.EB
		}
	}
	commit := false
	for _, resp := range accepted {
		if resp.EB == maxEB && resp.State == StatePreCommitted {
			commit = true
			break
		}
	}

	// Decision quorum: a majority must force the pre-decision.
	type ack struct {
		resp wire.TermPreDecideResp
		err  error
	}
	acks := make(chan ack, len(voters))
	for _, site := range voters {
		go func(site model.SiteID) {
			resp, err := r.SendPreDecide(ctx, site, tx, ballot, commit)
			acks <- ack{resp: resp, err: err}
		}(site)
	}
	// A quorum of forced pre-decisions decides; a silent voter's ack is not
	// waited for past it.
	got := 0
	for range voters {
		if got >= quorum {
			break
		}
		a := <-acks
		if a.err != nil {
			continue
		}
		if a.resp.Decided {
			p.adoptDecision(ctx, r, tx, voters, a.resp.Commit)
			return true
		}
		if a.resp.Accepted {
			got++
		}
	}
	if got < quorum {
		return false
	}
	p.adoptDecision(ctx, r, tx, voters, commit)
	return true
}

// adoptDecision applies a termination outcome locally and propagates it to
// the electorate (best-effort: members that miss it re-run termination and
// learn it from the quorum). The fan-out is concurrent, like every other
// broadcast in this package — one partitioned voter consuming the shared
// context sequentially would starve the reachable ones of a decision they
// could apply immediately.
func (p *Participant) adoptDecision(ctx context.Context, r Resolver, tx model.TxID, voters []model.SiteID, commit bool) {
	p.HandleDecision(tx, commit) //nolint:errcheck
	var wg sync.WaitGroup
	for _, site := range voters {
		if site == p.self {
			continue
		}
		wg.Add(1)
		go func(site model.SiteID) {
			defer wg.Done()
			r.SendDecision(ctx, site, tx, commit) //nolint:errcheck // best-effort
		}(site)
	}
	wg.Wait()
}

// termDeferMax bounds how many resolve attempts a member yields to a
// lower-id initiator before electing anyway. Deferral is liveness-only
// (the ballot order fences everything), so the budget just has to be small
// enough that a preferred initiator dying mid-election cannot block the
// electorate for long.
const termDeferMax = 2

// deferToLowerInitiator implements the election leader preference: when
// concurrent members race to terminate the same transaction, their duelling
// ballots invalidate each other and termination converges only after extra
// rounds. A member that has already PROMISED a termination ballot from a
// lower-id voter knows a preferred initiator is live and mid-election, so
// it sits out a bounded number of its own attempts — the lowest live voter
// initiates first, and the others join its quorum instead of outbidding it.
func (p *Participant) deferToLowerInitiator(tx model.TxID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.states[tx]
	if !ok {
		return false
	}
	if st.ea.N == 0 || st.ea.Site == p.self || st.ea.Site > p.self {
		return false // no promise, or it is ours / from a less-preferred site
	}
	if st.deferred >= termDeferMax {
		return false // preferred initiator stalled: elect anyway
	}
	st.deferred++
	return true
}

// bumpAttempt raises the member's next attempt seed past ballots observed
// during a failed election, so the retry does not collide with them.
func (p *Participant) bumpAttempt(tx model.TxID, seen uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.states[tx]; ok && st.nextN < seen {
		st.nextN = seen
	}
}
