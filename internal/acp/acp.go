// Package acp implements Rainbow's atomic commit protocols (ACPs):
// two-phase commit (2PC, the paper's default) and three-phase commit (3PC,
// the paper's suggested term-project replacement).
//
// The package provides both halves of each protocol: the coordinator state
// machine run by a transaction's home site (Protocol.Commit) and the
// participant state machine embedded in every site (Participant), including
// WAL forcing rules, decision retries, presumed-abort decision serving,
// crash recovery of in-doubt transactions, and 3PC's cooperative
// termination protocol. Blocked in-doubt participants are the paper's
// "orphan transactions" statistic.
package acp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TermState values reported by participants during termination.
const (
	StateNone         uint8 = iota // no trace of the transaction
	StatePrepared                  // voted yes, uncertain
	StatePreCommitted              // 3PC: accepted a commit pre-decision
	StateCommitted
	StateAborted
	// StatePreAborted is 3PC's symmetric pre-decision: the member accepted
	// an elected initiator's abort pre-decision (quorum termination may
	// only abort through it, exactly as it may only commit through
	// pre-commit).
	StatePreAborted
)

// StateName renders a TermState for logs.
func StateName(s uint8) string {
	switch s {
	case StateNone:
		return "none"
	case StatePrepared:
		return "prepared"
	case StatePreCommitted:
		return "precommitted"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	case StatePreAborted:
		return "preaborted"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// ErrInDoubt is returned by a 3PC coordinator whose outcome could not be
// resolved within the call: a pre-commit round that missed its quorum (or a
// termination attempt that could not reach one) leaves the transaction
// legitimately undecided — deciding unilaterally could contradict a quorum
// termination on the other side of a partition. The caller must NOT release
// the cohort's CC state (the transaction may yet commit); the participants'
// resolver loops drive it to an outcome. The cause is AbortInDoubt, not
// AbortACP: workload retry loops must not resubmit the work (the original
// transaction may still commit — a blind retry would double-execute it) and
// abort statistics must not count an unresolved outcome as a clean abort.
var ErrInDoubt = &model.AbortError{Cause: model.AbortInDoubt, Reason: "3pc: outcome unresolved (pre-commit quorum unreachable); quorum termination will decide"}

// Cohort is the coordinator's transport face: how it reaches participants.
// The site implements it over the wire layer (with a loopback fast path for
// itself).
type Cohort interface {
	// Prepare delivers phase-1 and returns the participant's vote.
	Prepare(ctx context.Context, site model.SiteID, req wire.PrepareReq) (wire.VoteResp, error)
	// PreCommit delivers the 3PC pre-commit and waits for its ack. The ack
	// means the participant FORCED its pre-committed state: the
	// coordinator may decide commit only after a majority of the
	// electorate acked (the commit quorum any later termination must
	// intersect).
	PreCommit(ctx context.Context, site model.SiteID, tx model.TxID) error
	// CommitHome is 2PC's phase 1 and decision in one force at the
	// coordinator's own site, when it is a participant holding writes and
	// every other participant voted yes: it runs the site's prepare guards
	// and, if they pass, forces req's prepared record and the commit decision
	// with one append and adopts the commit, as one unit. A no vote forces
	// nothing; an error means the force failed.
	CommitHome(ctx context.Context, req wire.PrepareReq) (wire.VoteResp, error)
	// Decide delivers the final decision and waits for its ack. lazy says
	// the coordinator has already replied, so the participant may force its
	// decision record lazily (wal.Record.Lazy).
	Decide(ctx context.Context, site model.SiteID, tx model.TxID, commit, lazy bool) error
	// End tells a participant the whole cohort acknowledged the decision,
	// so it may retire its decision-table entry. Best-effort and
	// fire-and-forget (it waits for no reply): the coordinator is the resort
	// of record (it retains its own entry until every ack is in), so a lost
	// end message costs only a lingering table entry, never a wrong
	// resolution.
	End(ctx context.Context, site model.SiteID, tx model.TxID) error
}

// Options bounds the coordinator's waits.
type Options struct {
	// Vote bounds the wait for each participant's vote.
	Vote time.Duration
	// Ack bounds the wait for decision / pre-commit acknowledgements.
	Ack time.Duration
}

// withDefaults fills zero timeouts so a zero Options never spins.
func (o Options) withDefaults() Options {
	if o.Vote == 0 {
		o.Vote = 2 * time.Second
	}
	if o.Ack == 0 {
		o.Ack = 2 * time.Second
	}
	return o
}

// Request describes one commit run.
type Request struct {
	Tx           model.TxID
	TS           model.Timestamp
	Coordinator  model.SiteID
	Participants []model.SiteID
	// WritesFor returns the write records a participant must install.
	WritesFor func(model.SiteID) []model.WriteRecord
	// Epoch is the catalog epoch the transaction began under, carried in
	// every prepare for the participants' epoch fence (see
	// wire.PrepareReq.Epoch).
	Epoch uint64
	// Voters is the 3PC termination electorate (see wire.PrepareReq.
	// Voters): the participants holding writes. Leaving it empty DISABLES quorum
	// termination for the transaction (in-doubt members then resolve only
	// through known-decision queries, like legacy pre-electorate records)
	// — 3PC callers must populate it.
	Voters []model.SiteID
	// IncarnationFor returns the incarnation number site reported when this
	// transaction operated there (0 = unknown), for the participants'
	// incarnation fence (see wire.PrepareReq.Incarnation). Nil skips it.
	IncarnationFor func(model.SiteID) uint64
	// Voted lists the participants that already voted yes with their copy
	// operation's reply (a wave's voting legs under 2PC): they are prepared,
	// so phase 1 asks only the others.
	Voted []model.SiteID
}

// Protocol is an atomic commit protocol, run by the coordinator.
type Protocol interface {
	// Name returns "2pc" or "3pc".
	Name() string
	// ThreePhase reports whether participants should run the 3PC machine.
	ThreePhase() bool
	// Commit drives the protocol to a decision and returns as soon as the
	// decision record is forced — the commit point. It returns the decision
	// (true = commit); a false decision is accompanied by an error carrying
	// the abort cause. onDecision fires exactly once, immediately after the
	// decision is logged and before it is propagated, so the caller can
	// serve decision requests for recovering participants.
	//
	// What remains is returned as the tail, which the caller must run
	// exactly once, before or after it reports the outcome (see Tail). The
	// tail is nil when nothing remains: a read-only commit, an unresolved
	// (ErrInDoubt) outcome, or a failed decision force.
	Commit(ctx context.Context, c Cohort, log wal.Log, opts Options, req Request, onDecision func(commit bool)) (commit bool, tail Tail, err error)
}

// Tail finishes a decided transaction: it delivers the decision to the
// phase-2 cohort and collects the acknowledgements, forces the end record
// once every member acknowledged, and tells the cohort it may retire its
// decision entry. It reports whether every member acknowledged; when one did
// not, the decision stays in the coordinator's table and that member learns
// it through a decision request (2PC) or quorum termination (3PC), exactly as
// if the coordinator had crashed right after the decision force.
//
// None of it decides anything, so a caller may report the outcome before
// running the tail; it then passes lazy, and the tail's forces — the end
// record here, the decision records at the participants — become Lazy
// records that ride other appends' force-write cycles. ctx must outlive the
// transaction (the tail records no trace spans); each wait in it is bounded
// by Options.Ack.
type Tail func(ctx context.Context, lazy bool) (allAcked bool)

// Withdraw is the tail of a transaction the coordinator abandoned after some
// participants voted yes with their copy operation's reply: it tells those
// participants the transaction aborted and lets them retire the decision,
// and reports whether every one acknowledged. Presumed abort makes this need
// no coordinator log record — a participant the message misses asks, finds
// the coordinator neither running nor logging the transaction, and hears
// abort.
func Withdraw(c Cohort, opts Options, tx model.TxID, voted []model.SiteID) Tail {
	opts = opts.withDefaults()
	req := Request{Tx: tx}
	return func(ctx context.Context, lazy bool) bool {
		if !broadcastDecision(ctx, c, opts, req, voted, false, lazy) {
			return false
		}
		broadcastEnd(ctx, c, opts, req, voted)
		return true
	}
}

// New constructs a protocol by name.
func New(name string) (Protocol, error) {
	switch name {
	case "2pc", "2PC", "":
		return TwoPC{}, nil
	case "3pc", "3PC":
		return ThreePC{}, nil
	default:
		return nil, fmt.Errorf("acp: unknown atomic commit protocol %q", name)
	}
}

// Names lists the available ACP names.
func Names() []string { return []string{"2pc", "3pc"} }
