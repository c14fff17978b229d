// Typed body codec: the compact binary encoding for message bodies and the
// kind→constructor registry.
//
// Every body implements Body: it knows its canonical kind, appends its
// binary encoding to a caller-supplied buffer, and decodes itself from one.
// The encoding follows internal/wal/codec.go's style — a leading version
// byte, uvarint/varint integers, length-prefixed strings — hand-rolled
// because the transport's hot path cannot afford reflection.
//
// Each body has exactly one layout, named by its version byte. Every site,
// the name server and the tools are built from one checkout, so nothing
// ever decodes another build's layout: a decoder that meets any other
// version byte returns an error, and changing a body's layout means bumping
// its version. Kinds are never renumbered (see the MsgKind block in
// wire.go): a retired kind keeps its number reserved, and a receiver that
// does not know a kind drops the message rather than misdecode it.
//
// Cold-path bodies with deeply nested payloads (catalogs, stats dumps,
// histories) encode as a version byte followed by JSON (AppendJSON/
// DecodeJSON), so they need no hand-written field lists.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/model"
)

// Body is implemented by every message body. Implementations use pointer
// receivers: DecodeFrom mutates.
type Body interface {
	// Kind returns the body's canonical message kind. Some bodies serve
	// several kinds (PingReq doubles as the empty stats/history request), so
	// envelopes carry their kind explicitly; Kind is the default used by
	// helpers and tests.
	Kind() MsgKind
	// AppendTo appends the body's binary encoding to buf and returns the
	// extended slice.
	AppendTo(buf []byte) []byte
	// DecodeFrom decodes the binary encoding in b into the receiver.
	DecodeFrom(b []byte) error
}

// ---- Kind → constructor registry ----

type bodyKey struct {
	kind  MsgKind
	reply bool
}

var bodyCtors = map[bodyKey]func() Body{}

// RegisterBody records the constructor for the body type carried by (kind,
// reply) envelopes. It must be called during package initialization (the
// map is read lock-free afterwards); packages owning cold-path bodies (site
// stats, nameserver catalogs) register theirs alongside the wire kinds
// registered here.
func RegisterBody(kind MsgKind, reply bool, ctor func() Body) {
	key := bodyKey{kind, reply}
	if _, dup := bodyCtors[key]; dup {
		panic(fmt.Sprintf("wire: duplicate body registration for %v reply=%v", kind, reply))
	}
	bodyCtors[key] = ctor
}

// NewBody constructs an empty body for (kind, reply), or false for kinds
// with no registered body (unknown or from a newer peer).
func NewBody(kind MsgKind, reply bool) (Body, bool) {
	ctor, ok := bodyCtors[bodyKey{kind, reply}]
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// RegisteredBodyKinds lists every (kind, reply) pair with a registered
// constructor, sorted — the fuzzer and round-trip tests sweep it so new
// bodies are covered by registration alone.
func RegisteredBodyKinds() []struct {
	Kind  MsgKind
	Reply bool
} {
	out := make([]struct {
		Kind  MsgKind
		Reply bool
	}, 0, len(bodyCtors))
	for k := range bodyCtors {
		out = append(out, struct {
			Kind  MsgKind
			Reply bool
		}{k.kind, k.reply})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return !out[i].Reply && out[j].Reply
	})
	return out
}

// ---- JSON bodies ----

// jsonVersion is the version byte opening every JSON-encoded body.
const jsonVersion = 1

// AppendJSON appends a version byte and the JSON encoding of v to buf — the
// encoding of cold-path bodies (catalogs, stats dumps, histories) whose
// nested types are not worth hand-rolled encoders. An encode error
// (unreachable for the registered body types) leaves the payload truncated;
// the receiver's decode then fails and the message is lost, which the
// unreliable-network contract already allows.
func AppendJSON(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return buf
	}
	buf = append(buf, jsonVersion)
	return append(buf, b...)
}

// DecodeJSON decodes a payload produced by AppendJSON into v.
func DecodeJSON(p []byte, v any) error {
	r := bodyReader{b: p}
	r.version(jsonVersion)
	if r.err != nil {
		return r.err
	}
	if err := json.Unmarshal(r.b, v); err != nil {
		return fmt.Errorf("wire: decode %T: %w", v, err)
	}
	return nil
}

// ---- Encoding helpers ----

// bodyVersion is the version byte of every hand-rolled body layout that
// has never changed. A body whose layout changed carries its own constant.
const bodyVersion = 1

// Version bytes of the bodies whose layouts changed.
const (
	prepareVersion       = 3
	decisionVersion      = 2
	copyBatchReqVersion  = 4
	copyBatchRespVersion = 3
)

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }
func appendVarint(buf []byte, v int64) []byte   { return binary.AppendVarint(buf, v) }

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendTx(buf []byte, tx model.TxID) []byte {
	buf = appendString(buf, string(tx.Site))
	return appendUvarint(buf, tx.Seq)
}

func appendTS(buf []byte, ts model.Timestamp) []byte {
	buf = appendUvarint(buf, ts.Time)
	return appendString(buf, string(ts.Site))
}

func appendBallot(buf []byte, b model.Ballot) []byte {
	buf = appendUvarint(buf, b.N)
	return appendString(buf, string(b.Site))
}

// bodyReader walks a binary body encoding with latched errors, mirroring
// the WAL codec's reader: after the first failure every accessor returns
// zero values and the error survives to the end, so decoders read fields
// straight-line without per-field checks.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated body (%s)", what)
	}
}

func (r *bodyReader) byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.fail("byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *bodyReader) bool() bool { return r.byte() != 0 }

func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// count reads a collection length and bounds it by the remaining bytes
// (each element costs at least one byte), so corrupt counts cannot drive
// huge allocations.
func (r *bodyReader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail("count")
		return 0
	}
	return int(n)
}

func (r *bodyReader) tx() model.TxID {
	site := r.str()
	return model.TxID{Site: model.SiteID(site), Seq: r.uvarint()}
}

func (r *bodyReader) ts() model.Timestamp {
	t := r.uvarint()
	return model.Timestamp{Time: t, Site: model.SiteID(r.str())}
}

func (r *bodyReader) ballot() model.Ballot {
	n := r.uvarint()
	return model.Ballot{N: n, Site: model.SiteID(r.str())}
}

// end finishes a decode: it fails unless the body was read to its last
// byte, since each body has one layout and nothing follows it.
func (r *bodyReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes after body", len(r.b))
	}
	return r.err
}

// version reads the leading version byte and fails the decode unless it is
// want: each body has one layout.
func (r *bodyReader) version(want byte) {
	v := r.byte()
	if r.err == nil && v != want {
		r.err = fmt.Errorf("wire: body version %d, want %d", v, want)
	}
}

// ---- Hand-rolled encoders, one pair per body ----
//
// Collections encode as a uvarint count followed by the elements; a zero
// count decodes to a nil slice/map.

func (b *ErrorBody) Kind() MsgKind { return KindError }

func (b *ErrorBody) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = append(buf, byte(b.Cause))
	return appendString(buf, b.Reason)
}

func (b *ErrorBody) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Cause = model.AbortCause(r.byte())
	b.Reason = r.str()
	return r.end()
}

func (b *OKBody) Kind() MsgKind { return KindOK }

func (b *OKBody) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *OKBody) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	return r.end()
}

func (b *RegisterSiteReq) Kind() MsgKind { return KindRegisterSite }

func (b *RegisterSiteReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendString(buf, string(b.Site))
	return appendString(buf, b.Addr)
}

func (b *RegisterSiteReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Site = model.SiteID(r.str())
	b.Addr = r.str()
	return r.end()
}

func (b *GetCatalogReq) Kind() MsgKind { return KindGetCatalog }

func (b *GetCatalogReq) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *GetCatalogReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	return r.end()
}

func (b *PingReq) Kind() MsgKind { return KindPing }

func (b *PingReq) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *PingReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	return r.end()
}

func (b *ReleaseTxReq) Kind() MsgKind { return KindReleaseTx }

func (b *ReleaseTxReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *ReleaseTxReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	return r.end()
}

func (b *PrepareReq) Kind() MsgKind { return KindPrepare }

func (b *PrepareReq) AppendTo(buf []byte) []byte {
	buf = append(buf, prepareVersion)
	buf = appendTx(buf, b.Tx)
	buf = appendTS(buf, b.TS)
	buf = appendString(buf, string(b.Coordinator))
	buf = appendUvarint(buf, uint64(len(b.Writes)))
	for _, w := range b.Writes {
		buf = appendString(buf, string(w.Item))
		buf = appendVarint(buf, w.Value)
		buf = appendUvarint(buf, uint64(w.Version))
		buf = appendBool(buf, w.Delta)
	}
	buf = appendUvarint(buf, uint64(len(b.Participants)))
	for _, s := range b.Participants {
		buf = appendString(buf, string(s))
	}
	buf = appendBool(buf, b.ThreePhase)
	buf = appendUvarint(buf, b.Epoch)
	buf = appendUvarint(buf, uint64(len(b.Voters)))
	for _, s := range b.Voters {
		buf = appendString(buf, string(s))
	}
	return appendUvarint(buf, b.Incarnation)
}

func (b *PrepareReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(prepareVersion)
	b.Tx = r.tx()
	b.TS = r.ts()
	b.Coordinator = model.SiteID(r.str())
	if n := r.count(); n > 0 {
		b.Writes = make([]model.WriteRecord, n)
		for i := range b.Writes {
			b.Writes[i] = model.WriteRecord{
				Item:    model.ItemID(r.str()),
				Value:   r.varint(),
				Version: model.Version(r.uvarint()),
				Delta:   r.bool(),
			}
		}
	} else {
		b.Writes = nil
	}
	if n := r.count(); n > 0 {
		b.Participants = make([]model.SiteID, n)
		for i := range b.Participants {
			b.Participants[i] = model.SiteID(r.str())
		}
	} else {
		b.Participants = nil
	}
	b.ThreePhase = r.bool()
	b.Epoch = r.uvarint()
	if n := r.count(); n > 0 {
		b.Voters = make([]model.SiteID, n)
		for i := range b.Voters {
			b.Voters[i] = model.SiteID(r.str())
		}
	} else {
		b.Voters = nil
	}
	b.Incarnation = r.uvarint()
	return r.end()
}

func (b *VoteResp) Kind() MsgKind { return KindVote }

func (b *VoteResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendBool(buf, b.Yes)
	buf = appendBool(buf, b.ReadOnly)
	return appendString(buf, b.Reason)
}

func (b *VoteResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Yes = r.bool()
	b.ReadOnly = r.bool()
	b.Reason = r.str()
	return r.end()
}

func (b *PreCommitReq) Kind() MsgKind { return KindPreCommit }

func (b *PreCommitReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *PreCommitReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	return r.end()
}

func (b *DecisionMsg) Kind() MsgKind { return KindDecision }

func (b *DecisionMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, decisionVersion)
	buf = appendTx(buf, b.Tx)
	buf = appendBool(buf, b.Commit)
	return appendBool(buf, b.Lazy)
}

func (b *DecisionMsg) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(decisionVersion)
	b.Tx = r.tx()
	b.Commit = r.bool()
	b.Lazy = r.bool()
	return r.end()
}

func (b *AckMsg) Kind() MsgKind { return KindAck }

func (b *AckMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *AckMsg) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	return r.end()
}

func (b *EndTxMsg) Kind() MsgKind { return KindEndTx }

func (b *EndTxMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *EndTxMsg) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	return r.end()
}

func (b *GetEpochReq) Kind() MsgKind { return KindGetEpoch }

func (b *GetEpochReq) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *GetEpochReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	return r.end()
}

func (b *EpochResp) Kind() MsgKind { return KindGetEpoch }

func (b *EpochResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendUvarint(buf, b.Epoch)
}

func (b *EpochResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Epoch = r.uvarint()
	return r.end()
}

func (b *DecisionReq) Kind() MsgKind { return KindDecisionReq }

func (b *DecisionReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendTx(buf, b.Tx)
	return appendBool(buf, b.ThreePhase)
}

func (b *DecisionReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	b.ThreePhase = r.bool()
	return r.end()
}

func (b *DecisionResp) Kind() MsgKind { return KindDecision }

func (b *DecisionResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendBool(buf, b.Known)
	return appendBool(buf, b.Commit)
}

func (b *DecisionResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Known = r.bool()
	b.Commit = r.bool()
	return r.end()
}

func (b *TermQueryReq) Kind() MsgKind { return KindTermQuery }

func (b *TermQueryReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendTx(buf, b.Tx)
	return appendBallot(buf, b.Ballot)
}

func (b *TermQueryReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	b.Ballot = r.ballot()
	return r.end()
}

func (b *TermQueryResp) Kind() MsgKind { return KindTermQuery }

func (b *TermQueryResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendBool(buf, b.Accepted)
	buf = appendBallot(buf, b.EA)
	buf = append(buf, b.State)
	buf = appendBallot(buf, b.EB)
	buf = appendBool(buf, b.Decided)
	return appendBool(buf, b.Commit)
}

func (b *TermQueryResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Accepted = r.bool()
	b.EA = r.ballot()
	b.State = r.byte()
	b.EB = r.ballot()
	b.Decided = r.bool()
	b.Commit = r.bool()
	return r.end()
}

func (b *TermPreDecideReq) Kind() MsgKind { return KindTermPreDecide }

func (b *TermPreDecideReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendTx(buf, b.Tx)
	buf = appendBallot(buf, b.Ballot)
	return appendBool(buf, b.Commit)
}

func (b *TermPreDecideReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Tx = r.tx()
	b.Ballot = r.ballot()
	b.Commit = r.bool()
	return r.end()
}

func (b *TermPreDecideResp) Kind() MsgKind { return KindTermPreDecide }

func (b *TermPreDecideResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendBool(buf, b.Accepted)
	buf = appendBool(buf, b.Decided)
	return appendBool(buf, b.Commit)
}

func (b *TermPreDecideResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	b.Accepted = r.bool()
	b.Decided = r.bool()
	b.Commit = r.bool()
	return r.end()
}

func (b *SubmitTxReq) Kind() MsgKind { return KindSubmitTx }

func (b *SubmitTxReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		buf = append(buf, byte(op.Kind))
		buf = appendString(buf, string(op.Item))
		buf = appendVarint(buf, op.Value)
	}
	return buf
}

func (b *SubmitTxReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	if n := r.count(); n > 0 {
		b.Ops = make([]model.Op, n)
		for i := range b.Ops {
			b.Ops[i] = model.Op{
				Kind:  model.OpKind(r.byte()),
				Item:  model.ItemID(r.str()),
				Value: r.varint(),
			}
		}
	} else {
		b.Ops = nil
	}
	return r.end()
}

func (b *SubmitTxResp) Kind() MsgKind { return KindSubmitTx }

func (b *SubmitTxResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	o := &b.Outcome
	buf = appendTx(buf, o.Tx)
	buf = appendBool(buf, o.Committed)
	buf = append(buf, byte(o.Cause))
	buf = appendVarint(buf, o.LatencyNS)
	buf = appendUvarint(buf, uint64(len(o.Reads)))
	if len(o.Reads) > 0 {
		// Sorted keys keep the encoding deterministic (round-trip tests
		// compare bytes, and byte-identical traffic is a package promise).
		items := make([]string, 0, len(o.Reads))
		for item := range o.Reads {
			items = append(items, string(item))
		}
		sort.Strings(items)
		for _, item := range items {
			buf = appendString(buf, item)
			buf = appendVarint(buf, o.Reads[model.ItemID(item)])
		}
	}
	return appendString(buf, string(o.HomeSite))
}

func (b *SubmitTxResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(bodyVersion)
	o := &b.Outcome
	o.Tx = r.tx()
	o.Committed = r.bool()
	o.Cause = model.AbortCause(r.byte())
	o.LatencyNS = r.varint()
	if n := r.count(); n > 0 {
		o.Reads = make(map[model.ItemID]int64, n)
		for i := 0; i < n; i++ {
			item := model.ItemID(r.str())
			o.Reads[item] = r.varint()
		}
	} else {
		o.Reads = nil
	}
	o.HomeSite = model.SiteID(r.str())
	return r.end()
}

func (b *CopyBatchReq) Kind() MsgKind { return KindCopyBatch }

func (b *CopyBatchReq) AppendTo(buf []byte) []byte {
	buf = append(buf, copyBatchReqVersion)
	buf = appendTx(buf, b.Tx)
	buf = appendTS(buf, b.TS)
	buf = appendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		buf = append(buf, byte(op.Kind))
		buf = appendString(buf, string(op.Item))
		buf = appendVarint(buf, op.Value)
	}
	buf = appendBool(buf, b.Final)
	buf = appendUvarint(buf, b.Epoch)
	buf = appendBool(buf, b.NoWait)
	buf = appendBool(buf, b.Vote)
	buf = appendUvarint(buf, uint64(len(b.Cohort)))
	for _, s := range b.Cohort {
		buf = appendString(buf, string(s))
	}
	buf = appendUvarint(buf, uint64(len(b.Floors)))
	for _, v := range b.Floors {
		buf = appendUvarint(buf, uint64(v))
	}
	return buf
}

func (b *CopyBatchReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(copyBatchReqVersion)
	b.Tx = r.tx()
	b.TS = r.ts()
	if n := r.count(); n > 0 {
		b.Ops = make([]model.Op, n)
		for i := range b.Ops {
			b.Ops[i] = model.Op{
				Kind:  model.OpKind(r.byte()),
				Item:  model.ItemID(r.str()),
				Value: r.varint(),
			}
		}
	} else {
		b.Ops = nil
	}
	b.Final = r.bool()
	b.Epoch = r.uvarint()
	b.NoWait = r.bool()
	b.Vote = r.bool()
	if n := r.count(); n > 0 {
		b.Cohort = make([]model.SiteID, n)
		for i := range b.Cohort {
			b.Cohort[i] = model.SiteID(r.str())
		}
	} else {
		b.Cohort = nil
	}
	if n := r.count(); n > 0 {
		b.Floors = make([]model.Version, n)
		for i := range b.Floors {
			b.Floors[i] = model.Version(r.uvarint())
		}
	} else {
		b.Floors = nil
	}
	return r.end()
}

func (b *CopyBatchResp) Kind() MsgKind { return KindCopyBatch }

func (b *CopyBatchResp) AppendTo(buf []byte) []byte {
	buf = append(buf, copyBatchRespVersion)
	buf = appendUvarint(buf, uint64(len(b.Results)))
	for _, res := range b.Results {
		buf = appendVarint(buf, res.Value)
		buf = appendUvarint(buf, uint64(res.Version))
		buf = append(buf, byte(res.Cause))
		buf = appendString(buf, res.Reason)
	}
	buf = appendUvarint(buf, b.Clock)
	buf = appendUvarint(buf, b.Incarnation)
	buf = appendBool(buf, b.Released)
	buf = appendBool(buf, b.Voted)
	return appendBool(buf, b.WouldBlock)
}

func (b *CopyBatchResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version(copyBatchRespVersion)
	if n := r.count(); n > 0 {
		b.Results = make([]CopyResult, n)
		for i := range b.Results {
			b.Results[i] = CopyResult{
				Value:   r.varint(),
				Version: model.Version(r.uvarint()),
				Cause:   model.AbortCause(r.byte()),
				Reason:  r.str(),
			}
		}
	} else {
		b.Results = nil
	}
	b.Clock = r.uvarint()
	b.Incarnation = r.uvarint()
	b.Released = r.bool()
	b.Voted = r.bool()
	b.WouldBlock = r.bool()
	return r.end()
}

func init() {
	// The typed registry: one constructor per (kind, reply) pair. Kinds
	// whose requests are empty share PingReq (the canonical empty body).
	RegisterBody(KindError, true, func() Body { return &ErrorBody{} })
	RegisterBody(KindOK, true, func() Body { return &OKBody{} })
	RegisterBody(KindRegisterSite, false, func() Body { return &RegisterSiteReq{} })
	RegisterBody(KindGetCatalog, false, func() Body { return &GetCatalogReq{} })
	RegisterBody(KindPing, false, func() Body { return &PingReq{} })
	RegisterBody(KindReleaseTx, false, func() Body { return &ReleaseTxReq{} })
	RegisterBody(KindPrepare, false, func() Body { return &PrepareReq{} })
	RegisterBody(KindVote, true, func() Body { return &VoteResp{} })
	RegisterBody(KindPreCommit, false, func() Body { return &PreCommitReq{} })
	RegisterBody(KindAck, true, func() Body { return &AckMsg{} })
	RegisterBody(KindDecision, false, func() Body { return &DecisionMsg{} })
	RegisterBody(KindDecision, true, func() Body { return &DecisionResp{} })
	RegisterBody(KindDecisionReq, false, func() Body { return &DecisionReq{} })
	RegisterBody(KindEndTx, false, func() Body { return &EndTxMsg{} })
	RegisterBody(KindGetEpoch, false, func() Body { return &GetEpochReq{} })
	RegisterBody(KindGetEpoch, true, func() Body { return &EpochResp{} })
	RegisterBody(KindTermQuery, false, func() Body { return &TermQueryReq{} })
	RegisterBody(KindTermQuery, true, func() Body { return &TermQueryResp{} })
	RegisterBody(KindTermPreDecide, false, func() Body { return &TermPreDecideReq{} })
	RegisterBody(KindTermPreDecide, true, func() Body { return &TermPreDecideResp{} })
	RegisterBody(KindSubmitTx, false, func() Body { return &SubmitTxReq{} })
	RegisterBody(KindSubmitTx, true, func() Body { return &SubmitTxResp{} })
	RegisterBody(KindGetStats, false, func() Body { return &PingReq{} })
	RegisterBody(KindResetStats, false, func() Body { return &PingReq{} })
	RegisterBody(KindGetHistory, false, func() Body { return &PingReq{} })
	RegisterBody(KindCopyBatch, false, func() Body { return &CopyBatchReq{} })
	RegisterBody(KindCopyBatch, true, func() Body { return &CopyBatchResp{} })
}
