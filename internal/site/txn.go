package site

import (
	"context"
	"errors"
	"time"

	"repro/internal/acp"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Txn is an interactive transaction at its home site: the caller interleaves
// Read and Write calls with its own logic (computing transfer amounts from
// balances just read, for example) and finishes with Commit or Abort. The
// one-shot Execute API is the same object driven as one wave (Txn.wave)
// instead of one operation at a time.
type Txn struct {
	s    *Site
	tx   model.TxID
	ts   model.Timestamp
	sess *rcp.Session

	catalog  *schema.Catalog
	rcpProto rcp.Protocol
	acpProto acp.Protocol
	ccp      string // the CC manager's name, which decides when Commit replies
	timeouts schema.Timeouts

	ctx    context.Context
	cancel context.CancelFunc
	// unwatch stops the abandonment watch on ctx (see abandon); false means
	// the watch already fired.
	unwatch func() bool
	start   time.Time
	reads   map[model.ItemID]int64
	// wrote/added track which items this transaction wrote resp. blind-
	// added (lazily allocated). Mixing Add with Read/Write of the same
	// item in one transaction is rejected: an add's delta record and a
	// write's absolute record cannot merge in the session write set, and
	// an add-after-read defeats the point of the blind add anyway (the
	// read already holds the exclusive-with-readers lock — callers who
	// read should just Write the computed value).
	wrote    map[model.ItemID]bool
	added    map[model.ItemID]bool
	doomed   error
	finished bool
	// act is the transaction's sampled trace (nil for the untraced common
	// case — every span call then no-ops without reading the clock). It
	// rides t.ctx, so remote calls stamp its ID on their envelopes.
	act *trace.Active
}

// Begin admits a new transaction at this home site, dedicating the calling
// goroutine to it (paper §2.1). It fails if the site is crashed.
func (s *Site) Begin(ctx context.Context) (*Txn, error) {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, model.Abortf(model.AbortClient, "site %s is down", s.id)
	}
	s.seq++
	t := &Txn{
		s:        s,
		tx:       model.TxID{Site: s.id, Seq: s.seq},
		ts:       s.clock.Now(),
		catalog:  s.catalog,
		rcpProto: s.rcpProto,
		acpProto: s.acpProto,
		ccp:      s.ccm.Name(),
		timeouts: s.timeouts,
		start:    time.Now(),
		reads:    make(map[model.ItemID]int64),
	}
	// Registered from here to its outcome (or its abandonment): asked about
	// this transaction in the meantime (a remote CC janitor wondering about an
	// old lock), the site answers "still running", never "presumed aborted".
	s.activeCoord[t.tx] = true
	runCtx := s.runCtx
	s.mu.Unlock()

	t.sess = rcp.NewSession(t.tx, t.ts)
	t.sess.Epoch = t.catalog.Epoch
	t.ctx, t.cancel = mergeContexts(ctx, runCtx)
	t.act = s.tracer.Begin(t.tx)
	t.ctx = trace.NewContext(t.ctx, t.act)
	t.unwatch = context.AfterFunc(t.ctx, t.abandon)
	s.stats.Add(monitor.Began, 1)
	return t, nil
}

// ID returns the transaction's id.
func (t *Txn) ID() model.TxID { return t.tx }

// Read performs a logical read through the replication control protocol.
// After any operation fails the transaction is doomed: further operations
// return the same abort and Commit turns into Abort.
func (t *Txn) Read(item model.ItemID) (int64, error) {
	if err := t.usable(); err != nil {
		return 0, err
	}
	meta, ok := t.catalog.Items[item]
	if !ok {
		t.doomed = model.Abortf(model.AbortClient, "unknown item %s", item)
		return 0, t.doomed
	}
	if t.added[item] {
		t.doomed = model.Abortf(model.AbortClient, "cannot read %s after blind-adding it in the same transaction", item)
		return 0, t.doomed
	}
	opCtx, cancel := t.budget(3) // the first round and two replacement rounds
	defer cancel()
	sp := t.act.StartSpan(trace.StageOp, "read "+string(item))
	v, err := t.rcpProto.Read(opCtx, t.s, t.sess, meta)
	sp.End()
	if err != nil {
		t.doomed = err
		return 0, err
	}
	t.reads[item] = v
	return v, nil
}

// Write performs a logical write through the replication control protocol.
func (t *Txn) Write(item model.ItemID, value int64) error {
	if err := t.usable(); err != nil {
		return err
	}
	meta, ok := t.catalog.Items[item]
	if !ok {
		t.doomed = model.Abortf(model.AbortClient, "unknown item %s", item)
		return t.doomed
	}
	if t.added[item] {
		t.doomed = model.Abortf(model.AbortClient, "cannot write %s after blind-adding it in the same transaction", item)
		return t.doomed
	}
	opCtx, cancel := t.budget(3) // the first round and two replacement rounds
	defer cancel()
	sp := t.act.StartSpan(trace.StageOp, "write "+string(item))
	err := t.rcpProto.Write(opCtx, t.s, t.sess, meta, value)
	sp.End()
	if err != nil {
		t.doomed = err
		return err
	}
	if t.wrote == nil {
		t.wrote = make(map[model.ItemID]bool)
	}
	t.wrote[item] = true
	return nil
}

// Add performs a logical blind add: delta is reconciled into the item's
// committed value at commit time without reading it first. Adds commute, so
// under 2PL a hot item's adds can run lock-free through split execution
// (Doppel-style); under TSO/MVTSO they are ordinary timestamped intents.
// Repeated adds of one item merge their deltas. Mixing Add with Read or
// Write of the same item in one transaction is rejected with AbortClient.
func (t *Txn) Add(item model.ItemID, delta int64) error {
	if err := t.usable(); err != nil {
		return err
	}
	meta, ok := t.catalog.Items[item]
	if !ok {
		t.doomed = model.Abortf(model.AbortClient, "unknown item %s", item)
		return t.doomed
	}
	if _, read := t.reads[item]; read || t.wrote[item] {
		t.doomed = model.Abortf(model.AbortClient, "cannot blind-add %s after reading or writing it in the same transaction", item)
		return t.doomed
	}
	opCtx, cancel := t.budget(3) // the first round and two replacement rounds
	defer cancel()
	sp := t.act.StartSpan(trace.StageOp, "add "+string(item))
	err := t.rcpProto.Add(opCtx, t.s, t.sess, meta, delta)
	sp.End()
	if err != nil {
		t.doomed = err
		return err
	}
	if t.added == nil {
		t.added = make(map[model.ItemID]bool)
	}
	t.added[item] = true
	return nil
}

// abandon runs when the transaction's context ends before Commit or Abort was
// called: the caller cancelled or dropped it, or the site crashed. Nothing can
// drive it to an outcome any more (every further operation fails on the dead
// context), so it stops counting as still running and frees what it holds at
// once instead of leaving that to the CC janitors. The owner may still call
// Commit or Abort afterwards; both find it doomed and release again, which is
// idempotent. Never runs once Commit or Abort has started: releasing under a
// commit protocol in flight would free the locks of prepared participants.
func (t *Txn) abandon() {
	s := t.s
	s.mu.Lock()
	delete(s.activeCoord, t.tx)
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return // fail-stop: a dead home sends nothing; the janitors take over
	}
	s.abortEverywhere(t.sess)
}

// rerun abandons a one-shot attempt — one a no-wait leg refused, or one
// whose voting leg got no reply — and readies the program to run again
// under a fresh transaction id and timestamp: every site the attempt reached
// is released, and every site that voted, or may have, is told the attempt
// aborted — presumed abort, so nothing is logged here. The transaction keeps
// its start time and trace, and its outcome counts once. rerun reports
// false, leaving the transaction doomed, when it cannot go on: its context
// ended (the abandonment watch already released everything) or the site
// crashed.
func (t *Txn) rerun() bool {
	if !t.unwatch() {
		return false
	}
	s := t.s
	s.abortEverywhere(t.sess)
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return false
	}
	delete(s.activeCoord, t.tx)
	s.seq++
	t.tx = model.TxID{Site: s.id, Seq: s.seq}
	t.ts = s.clock.Now()
	s.activeCoord[t.tx] = true
	s.mu.Unlock()
	t.sess = rcp.NewSession(t.tx, t.ts)
	t.sess.Epoch = t.catalog.Epoch
	t.doomed = nil
	t.unwatch = context.AfterFunc(t.ctx, t.abandon)
	return true
}

func (t *Txn) usable() error {
	if t.finished {
		return model.Abortf(model.AbortClient, "transaction %s already finished", t.tx)
	}
	return t.doomed
}

// finishedOutcome is returned by operations on an already-finished
// transaction without touching the statistics again.
func (t *Txn) finishedOutcome() model.Outcome {
	return model.Outcome{Tx: t.tx, Committed: false, Cause: model.AbortClient, HomeSite: t.s.id}
}

// Commit drives the atomic commit protocol over every touched site and
// returns the final outcome. A doomed transaction aborts instead.
func (t *Txn) Commit() model.Outcome {
	if t.finished {
		return t.finishedOutcome()
	}
	if t.doomed == nil && !t.unwatch() {
		t.doomed = model.Abortf(model.AbortClient, "transaction %s abandoned: %v", t.tx, context.Cause(t.ctx))
	}
	if t.doomed != nil {
		return t.Abort()
	}
	defer t.cancel()
	t.finished = true

	participants := t.sess.Participants()
	if len(participants) == 0 {
		return t.outcome(true, model.AbortNone)
	}

	s := t.s
	s.mu.Lock()
	coordLog := s.coordLog
	s.mu.Unlock()

	req := acp.Request{
		Tx:           t.tx,
		TS:           t.ts,
		Coordinator:  s.id,
		Participants: participants,
		// The termination electorate: participants holding writes (read-only
		// participants release at vote time and carry no termination state).
		Voters:    t.sess.WriteSites(),
		WritesFor: t.sess.WritesFor,
		// The begin-time epoch, for the participants' epoch fence: a site
		// that live-rebuilt past it refuses to prepare this transaction.
		Epoch: t.sess.Epoch,
		// Per-site incarnations observed during copy operations, for the
		// participants' incarnation fence.
		IncarnationFor: t.sess.IncarnationFor,
		// Sites that voted with their copy operation's reply.
		Voted: t.sess.Voted(),
	}
	var committed bool
	var tail acp.Tail
	var err error
	if len(participants) == 1 && participants[0] == s.id && len(req.Voters) == 0 {
		// Only the home is left of a read-only transaction (a wave that folded
		// its remote vote into its last leg): its one vote is local, so the
		// commit is local too — the read-only prepare's guards and release,
		// with no protocol run around them.
		v := s.votePrepare(wire.PrepareReq{Tx: t.tx, TS: t.ts, Coordinator: s.id, Participants: participants,
			Epoch: req.Epoch, Incarnation: t.sess.IncarnationFor(s.id)})
		if committed = v.Yes; !committed {
			err = model.Abortf(model.AbortACP, "%s voted no: %s", s.id, v.Reason)
		}
	} else {
		// coordLog routes the decision force through the participant, which
		// records the outcome and applies it locally under the checkpoint
		// gate, so no separate onDecision bookkeeping is needed — and the
		// home's own locks are released before the reply.
		committed, tail, err = t.acpProto.Commit(t.ctx, s, coordLog,
			acp.Options{Vote: t.timeouts.Vote, Ack: t.timeouts.Ack},
			req, nil)
	}
	if tail != nil {
		// The decision is durable, so the outcome is known; what is left
		// (deliver it, collect acks, RecEnd, EndTx) decides nothing. A
		// commit under 2PL replies before it: every remote copy it wrote
		// stays exclusively locked until the decision arrives there, and
		// read and write quorums intersect, so a later reader waits on that
		// lock or finds the installed value — never the old version. TSO
		// and MVTSO readers wait only on intents with smaller timestamps, so
		// a later transaction from a home whose clock lags could read the
		// pre-commit version while the decision is in flight: they keep the
		// tail before the reply until their reads wait on prepared intents
		// (ROADMAP item 10). An abort runs it first too, so the cohort is
		// released before the client retries.
		s.runTail(tail, committed && t.ccp == "2pl")
	}

	// Stray sites — attempted during quorum building but never enlisted —
	// may hold CC state from operations that completed after the
	// coordinator gave up on them; release them regardless of outcome. On
	// abort, release the participants as well: one whose prepare was lost
	// to a fault holds pre-write/read CC state but no prepared record, so
	// neither in-doubt resolution nor recovery will ever free it — and the
	// abort decision that would have released it may have been lost to the
	// same fault. The release is idempotent (the abort decision is
	// durable; a participant that already applied it just no-ops).
	if !committed {
		if errors.Is(err, acp.ErrInDoubt) {
			// 3PC could not assemble its pre-commit quorum: the outcome is
			// legitimately unresolved and belongs to quorum termination.
			// The cohort's prepared state MUST survive (the transaction
			// may yet commit); only strays are safe to release.
			s.releaseStrays(t.sess)
			return t.outcome(false, classify(err))
		}
		if tail == nil {
			// No decision went out (its force failed): the sites that voted
			// with their reply hear the abort from here.
			s.abortEverywhere(t.sess)
		} else {
			s.releaseEverywhere(t.sess) // participants + strays
		}
		return t.outcome(false, classify(err))
	}
	s.releaseStrays(t.sess)
	return t.outcome(true, model.AbortNone)
}

// Abort discards the transaction, releasing CC state at every touched site.
func (t *Txn) Abort() model.Outcome {
	if t.finished {
		return t.finishedOutcome()
	}
	t.finished = true
	t.unwatch()
	defer t.cancel()
	t.s.abortEverywhere(t.sess)
	cause := model.AbortClient
	if t.doomed != nil {
		cause = classify(t.doomed)
	}
	return t.outcome(false, cause)
}

func (t *Txn) outcome(committed bool, cause model.AbortCause) model.Outcome {
	t.s.mu.Lock()
	delete(t.s.activeCoord, t.tx)
	t.s.mu.Unlock()
	latency := time.Since(t.start)
	t.s.stats.TxDone(committed, cause, latency)
	if t.act != nil {
		note := "committed"
		if !committed {
			note = "aborted: " + cause.String()
		}
		t.act.Record(trace.StageExec, t.start, latency, note)
		t.act.Finish()
	}
	reads := t.reads
	if !committed {
		reads = nil
	}
	return model.Outcome{
		Tx:        t.tx,
		Committed: committed,
		Cause:     cause,
		LatencyNS: int64(latency),
		Reads:     reads,
		HomeSite:  t.s.id,
	}
}
