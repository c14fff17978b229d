// Package wire defines Rainbow's wire protocol: typed message envelopes,
// the body codec (one versioned binary layout per body — see codec.go), the
// transport abstraction implemented by both the simulated network
// (internal/simnet) and real TCP (internal/tcpnet), and a request/response
// RPC peer with correlation IDs.
//
// Every message body — even on the in-process simulated network — is
// encoded into Envelope.Payload before delivery. This gives three
// properties the paper depends on: (1) message sizes are real, so the
// "total number of messages generated per time unit" and byte-traffic
// statistics are meaningful; (2) no accidental pointer sharing between
// sites; (3) the simulated and TCP transports carry byte-identical
// traffic. Senders attach the typed Body and let the transport encode it
// at flush time.
package wire

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// MsgKind identifies the body type carried by an envelope. The receiver
// decodes the payload according to the kind.
type MsgKind uint16

// Message kinds, grouped by subsystem.
const (
	// Generic.
	KindError MsgKind = iota + 1
	KindOK

	// Name server (NSlet traffic).
	KindRegisterSite
	KindGetCatalog
	KindSetCatalog
	KindPing

	// Data access through RCP/CCP (Section 2.1: copies are read or
	// pre-written through the CCP). The two blanks are the retired
	// single-operation kinds (ReadCopy, PreWrite): one copy operation now
	// travels as a KindCopyBatch of one; their wire numbers stay reserved.
	_
	_
	KindReleaseTx

	// Atomic commit protocols.
	KindPrepare
	KindVote
	KindDecision
	KindAck
	KindDecisionReq
	KindPreCommit // 3PC phase 2
	// The blank is the retired cooperative-termination state probe:
	// quorum termination (KindTermQuery) replaced it. Its wire number stays
	// reserved.
	_

	// Progress monitor (PMlet traffic).
	KindGetStats
	KindResetStats
	KindGetHistory

	// Workload generator (WLGlet traffic).
	KindSubmitTx

	// Atomic commit protocols, continued. Appended after the original
	// block so existing kinds keep their wire numbers.
	KindEndTx // cohort fully acknowledged: retire the decision entry

	// Online catalog reconfiguration (appended for the same wire-number
	// stability reason).
	KindGetEpoch    // lightweight catalog-version probe (site poll)
	KindCatalogPush // name server -> site: a new catalog version exists

	// Quorum-based (E3PC) 3PC termination (appended for wire-number
	// stability).
	KindTermQuery     // election: promise a ballot, report state + eb
	KindTermPreDecide // elected initiator's pre-decision broadcast

	// The blank is the retired codec-negotiation hello: every peer speaks
	// the one binary codec, so nothing is negotiated. Its wire number stays
	// reserved.
	_

	// One-round execution (appended for wire-number stability): one
	// transaction's copy operations bound for one site, shipped and answered
	// as a unit (see CopyBatchReq).
	KindCopyBatch
)

var kindNames = map[MsgKind]string{
	KindError:         "Error",
	KindOK:            "OK",
	KindRegisterSite:  "RegisterSite",
	KindGetCatalog:    "GetCatalog",
	KindSetCatalog:    "SetCatalog",
	KindPing:          "Ping",
	KindReleaseTx:     "ReleaseTx",
	KindPrepare:       "Prepare",
	KindVote:          "Vote",
	KindDecision:      "Decision",
	KindAck:           "Ack",
	KindDecisionReq:   "DecisionReq",
	KindPreCommit:     "PreCommit",
	KindEndTx:         "EndTx",
	KindGetEpoch:      "GetEpoch",
	KindCatalogPush:   "CatalogPush",
	KindTermQuery:     "TermQuery",
	KindTermPreDecide: "TermPreDecide",
	KindGetStats:      "GetStats",
	KindResetStats:    "ResetStats",
	KindGetHistory:    "GetHistory",
	KindSubmitTx:      "SubmitTx",
	KindCopyBatch:     "CopyBatch",
}

// String names the kind for logs and traces.
func (k MsgKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("MsgKind(%d)", uint16(k))
}

// Envelope is the unit of transfer between Rainbow nodes.
type Envelope struct {
	From, To model.SiteID
	Kind     MsgKind
	// Corr correlates a reply with its request. Zero for one-way casts.
	Corr uint64
	// Reply marks response envelopes.
	Reply bool
	// Trace is the sampled-transaction trace ID riding this request
	// (trace.ID; zero — the overwhelmingly common case — means untraced
	// and costs one flag bit on the wire). Receivers record their fragment
	// of the distributed trace under this ID.
	Trace uint64
	// Payload is the encoded body; its type is determined by Kind. Local
	// senders leave it nil and attach Body instead — the transport encodes
	// at flush time.
	Payload []byte
	// Body is the typed body before encoding. It never crosses the wire:
	// transports encode it into Payload (simnet before delivery) or straight
	// into the outgoing frame (tcpnet).
	Body Body
}

// Size returns the approximate on-wire size of the envelope in bytes,
// counting addressing and header overhead plus the payload. Used by the
// traffic statistics.
func (e *Envelope) Size() int {
	return len(e.From) + len(e.To) + 2 /*kind*/ + 8 /*corr*/ + 1 /*reply*/ + len(e.Payload)
}

// Handler consumes inbound envelopes. Transports invoke it on their own
// goroutines; handlers must be safe for concurrent use.
type Handler func(env *Envelope)

// BatchHandler consumes the envelopes of one decoded wire frame as a
// slice, letting the receiver amortize per-delivery work (e.g. reply
// correlation) over the batch. Like Handler it runs on transport
// goroutines and must be safe for concurrent use.
type BatchHandler func(envs []*Envelope)

// BatchNetwork is implemented by transports whose receive side can deliver
// decoded envelopes in slices — one slice per multi-envelope wire frame.
// Peers attach through it when available; connections (or transports) that
// only carry single envelopes keep using the plain Handler.
type BatchNetwork interface {
	Network
	AttachBatch(id model.SiteID, h Handler, bh BatchHandler) (Endpoint, error)
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node's address on the network.
	ID() model.SiteID
	// Send delivers env to env.To. Delivery is unreliable in the same
	// sense as the underlying network: an error indicates only local
	// failures (node detached, unknown destination, ctx ended, connection
	// died); silent loss is possible on lossy networks. Send may block
	// until the envelope is written, or ctx ends, or the connection dies.
	Send(ctx context.Context, env *Envelope) error
	// Close detaches the node. Subsequent Sends fail.
	Close() error
}

// Network attaches nodes. Implemented by simnet.Net and tcpnet.Net.
type Network interface {
	// Attach registers a node and its inbound handler, returning its
	// endpoint. Attaching an already-attached id is an error.
	Attach(id model.SiteID, h Handler) (Endpoint, error)
}

// ---- Message bodies ----
//
// One struct per message kind; the encoders live in codec.go.

// ErrorBody reports a remote failure, preserving the abort cause across the
// wire so coordinators can classify aborts per protocol.
type ErrorBody struct {
	Cause  model.AbortCause
	Reason string
}

// Err converts the body back into an error: an *model.AbortError when a
// protocol abort crossed the wire, a generic error otherwise.
func (b *ErrorBody) Err() error {
	if b.Cause == model.AbortNone {
		return fmt.Errorf("remote error: %s", b.Reason)
	}
	return &model.AbortError{Cause: b.Cause, Reason: b.Reason}
}

// errorBodyOf converts a handler error into its wire form, preserving a
// protocol abort's cause. A client-cause (or unclassified) error crosses as
// cause None, so Err() re-creates a generic error rather than a spurious
// client abort.
func errorBodyOf(err error) ErrorBody {
	cause := model.CauseOf(err)
	if cause == model.AbortClient {
		cause = model.AbortNone
	}
	return ErrorBody{Cause: cause, Reason: err.Error()}
}

// OKBody is the empty success response.
type OKBody struct{}

// RegisterSiteReq registers a site with the name server.
type RegisterSiteReq struct {
	Site model.SiteID
	Addr string // transport-specific endpoint specification
}

// GetCatalogReq asks the name server for the current catalog.
type GetCatalogReq struct{}

// PingReq checks liveness; the monitor uses it for load-balance probing.
type PingReq struct{}

// CopyBatchReq asks a site to run copy operations on behalf of Tx through its
// CCP (Section 2.1: copies are read, or "pre-written (returning their current
// version number) through CCP") — reads, pre-writes and commutative pre-adds
// (model.Op kinds, Value being the written value or the delta merged into the
// copy at commit). A one-shot transaction ships everything its first round
// needs at the site as ONE message; an interactive transaction's operation is
// a batch of one. The site admits the operations sequentially in the order
// given (the home sorts a wave by item, keeping program order within an
// item), so per-site lock acquisition follows one global item order. The
// response is CopyBatchResp.
type CopyBatchReq struct {
	Tx  model.TxID
	TS  model.Timestamp
	Ops []model.Op
	// Final marks the last leg of a read-only one-shot wave, shipped only
	// after every earlier leg succeeded: its admission is the transaction's
	// lock point. Once every operation succeeded, the site runs the read-only
	// vote's guards (Epoch against its epoch fence, the release tombstone),
	// releases the transaction's CC state and answers Released, so the home
	// leaves it out of the commit protocol; a failed guard refuses the batch
	// with an ACP abort.
	Final bool
	// Epoch is the catalog epoch the transaction began under (Final and
	// Vote batches only; see PrepareReq.Epoch).
	Epoch uint64
	// NoWait admits without waiting: an operation that would have to wait
	// makes the site release everything Tx holds there and answer
	// WouldBlock.
	NoWait bool
	// Vote marks a leg that votes with its reply under 2PC — every remote
	// leg of an add-only wave, or the last leg of a wave that writes, shipped
	// only after every earlier leg succeeded. Once every operation succeeded,
	// the site runs the prepare's guards (Epoch against its epoch fence, the
	// incarnation that admitted the operations, the release tombstone, the
	// intents), forces a prepared record — Tx's home site as coordinator,
	// Cohort as the participants, the batch's writes and merged deltas as the
	// write set, each installing at the version after max(Floors[i], its own
	// copy's) — and answers Voted; a failed guard refuses the batch with an
	// ACP abort.
	Vote bool
	// Cohort lists the sites the wave planned to touch (Vote batches only).
	Cohort []model.SiteID
	// Floors holds, per operation, the highest version the wave's earlier
	// legs reported for it (a last leg's Vote batch only; nil means 0), so
	// the prepared record installs at the version the home computes.
	Floors []model.Version
}

// CopyResult is one operation's outcome inside a CopyBatchResp: the copy's
// value (reads) and current version, or the failure that stopped it (Cause
// and Reason as in ErrorBody; both empty means success).
type CopyResult struct {
	Value   int64
	Version model.Version
	Cause   model.AbortCause
	Reason  string
}

// Err returns the operation's failure as the error an ErrorBody reply would
// have produced, or nil when it succeeded.
func (r *CopyResult) Err() error {
	if r.Cause == model.AbortNone && r.Reason == "" {
		return nil
	}
	return (&ErrorBody{Cause: r.Cause, Reason: r.Reason}).Err()
}

// SetErr records err as the operation's failure, classifying it exactly
// like an ErrorBody reply.
func (r *CopyResult) SetErr(err error) {
	eb := errorBodyOf(err)
	r.Cause, r.Reason = eb.Cause, eb.Reason
}

// CopyBatchResp answers a CopyBatchReq with one result per operation, in
// request order. The first failure ends the batch: the operations after it
// were not run and say so.
type CopyBatchResp struct {
	Results []CopyResult
	// Clock carries the serving site's Lamport time so the coordinator can
	// witness it (clock gossip keeps lagging sites from issuing stale
	// timestamps that timestamp-ordering CCPs would reject).
	Clock uint64
	// Incarnation is the serving site's incarnation number (bumped on every
	// stack rebuild). The home site records it in the transaction's session
	// and echoes it in the prepare, so a site that crashed and recovered
	// between these operations and the prepare rejects the prepare exactly —
	// its CC protection for them died with the old incarnation.
	Incarnation uint64
	// Released answers a Final batch: the site already released the
	// transaction and takes no part in its commit protocol.
	Released bool
	// Voted answers a Vote batch: the site is prepared and voted yes.
	Voted bool
	// WouldBlock refuses a NoWait batch (Results is then empty): an
	// operation would have had to wait, and the site released everything
	// the transaction held there.
	WouldBlock bool
}

// ReleaseTxReq tells a participant to discard all CC state for an aborted
// transaction that never reached the commit protocol.
type ReleaseTxReq struct {
	Tx model.TxID
}

// PrepareReq is 2PC/3PC phase 1: the coordinator ships each participant its
// final write records (with install versions) and asks for a vote.
type PrepareReq struct {
	Tx          model.TxID
	TS          model.Timestamp
	Coordinator model.SiteID
	// Writes are the records this participant must install on commit.
	Writes []model.WriteRecord
	// Participants lists all cohort members, enabling cooperative
	// termination when the coordinator fails.
	Participants []model.SiteID
	// ThreePhase selects the 3PC state machine on the participant.
	ThreePhase bool
	// Epoch is the catalog epoch the transaction began under. A
	// participant whose stack was rebuilt live at a newer epoch votes no:
	// the rebuild discarded CC state exactly like a crash, so a pre-bump
	// transaction's locks may be gone and preparing it could serialize two
	// conflicting writers onto one version (the epoch fence).
	Epoch uint64
	// Voters is the 3PC termination electorate: the cohort members that
	// hold writes. Quorum termination counts majorities over this fixed set;
	// read-only participants release at vote time and hold no termination
	// state, so counting them would let a quorum form that cannot
	// intersect the pre-commit quorum. Empty for 2PC.
	Voters []model.SiteID
	// Incarnation is the target site's incarnation number observed when
	// this transaction operated there (first copy operation wins). The
	// site rejects the prepare when its current incarnation differs: a
	// crash recovery in between discarded the CC protection this prepare
	// relies on. Zero means unknown (no copy op recorded one) and skips
	// the check — the intent validation below still applies.
	Incarnation uint64
}

// VoteResp is the participant's vote. ReadOnly is the presumed-abort
// read-only optimization: a participant holding no writes for the
// transaction votes "read", releases its CC state immediately, and is
// excluded from phase 2.
type VoteResp struct {
	Yes      bool
	ReadOnly bool
	Reason   string
}

// PreCommitReq is 3PC phase 2 (the "prepared to commit" broadcast).
type PreCommitReq struct {
	Tx model.TxID
}

// DecisionMsg carries the final commit/abort decision.
type DecisionMsg struct {
	Tx     model.TxID
	Commit bool
	// Lazy says the coordinator already replied to its client: the
	// participant may force its decision record lazily (wal.Record.Lazy).
	Lazy bool
}

// AckMsg acknowledges a decision or pre-commit.
type AckMsg struct {
	Tx model.TxID
}

// EndTxMsg tells a participant the whole cohort acknowledged the decision
// (the coordinator logged its end record): no one will ever ask for the
// outcome again, so the participant may retire its decision-table entry.
// Delivery is best-effort — a lost message only delays retirement until the
// participant's next restart cannot even observe it (the entry merely
// lingers, costing snapshot bytes, never correctness).
type EndTxMsg struct {
	Tx model.TxID
}

// GetEpochReq asks the name server for the current catalog epoch only — the
// cheap staleness probe behind each site's catalog-poll loop (the full
// catalog is fetched only when the epoch moved).
type GetEpochReq struct{}

// EpochResp answers a GetEpochReq.
type EpochResp struct {
	Epoch uint64
}

// DecisionReq asks the coordinator (or a peer, during cooperative
// termination) for the outcome of an in-doubt transaction. ThreePhase
// marks a query about a 3PC transaction: the answerer must then never
// apply presumed abort — a 3PC cohort can commit by quorum termination
// without its coordinator, so an answerer with no record (a recovered
// coordinator that never logged, a stray peer) answers "unknown" instead
// of "abort". 2PC queries keep presumed abort.
type DecisionReq struct {
	Tx         model.TxID
	ThreePhase bool
}

// DecisionResp answers a DecisionReq. Known=false means the answerer does
// not know the outcome either.
type DecisionResp struct {
	Known  bool
	Commit bool
}

// TermQueryReq is quorum termination's election message: the initiator
// asks a cohort member to promise Ballot and report its termination state.
// A member with live state promises only ballots above its current "ea"
// (and forces the promise before answering).
type TermQueryReq struct {
	Tx     model.TxID
	Ballot model.Ballot
}

// TermQueryResp answers a TermQueryReq.
type TermQueryResp struct {
	// Accepted reports whether the member promised the ballot. EA returns
	// the member's current promise either way, so a rejected initiator can
	// retry with a higher attempt number.
	Accepted bool
	EA       model.Ballot
	// State is the member's commit-protocol state (acp.TermState values).
	// A member with NO trace of the transaction never answers Accepted:
	// it unilaterally decides abort — durably — and replies Decided (its
	// yes vote was never cast, so no commit can exist anywhere, and the
	// logged abort fences a late prepare from casting it retroactively).
	// EB is the ballot of the attempt the member last accepted a
	// pre-decision under.
	State uint8
	EB    model.Ballot
	// Decided/Commit short-circuit the election: the member already knows
	// the outcome.
	Decided bool
	Commit  bool
}

// TermPreDecideReq is the elected initiator's pre-decision broadcast:
// members that still honor Ballot force the pre-decision (their new "eb")
// and acknowledge; once a quorum has accepted, the initiator may decide.
type TermPreDecideReq struct {
	Tx     model.TxID
	Ballot model.Ballot
	Commit bool
}

// TermPreDecideResp answers a TermPreDecideReq.
type TermPreDecideResp struct {
	Accepted bool
	// Decided/Commit report an already-known outcome (the pre-decision is
	// then moot and the initiator adopts the decision instead).
	Decided bool
	Commit  bool
}

// SubmitTxReq submits a transaction for execution at a home site. The site
// assigns the TxID.
type SubmitTxReq struct {
	Ops []model.Op
}

// SubmitTxResp returns the outcome of a synchronously executed transaction.
type SubmitTxResp struct {
	Outcome model.Outcome
}
