// Typed body codec: the compact binary encoding for message bodies and the
// kind→constructor registry that replaces blanket gob registration.
//
// Every body implements Body: it knows its canonical kind, appends its
// binary encoding to a caller-supplied buffer, and decodes itself from one.
// The encoding follows internal/wal/codec.go's style — a leading version
// byte, uvarint/varint integers, length-prefixed strings — because gob's
// self-describing streams dominated the transport CPU profile: a fresh
// encoder per message re-sends type definitions every time, and
// gob.compileDec alone was over half the loopback transport cost.
//
// Evolution rules (mirroring the WAL codec):
//
//   - Fields are append-only. New fields go at the end of the encoding and
//     bump the body's version byte.
//   - Decoders accept any version they know and ignore trailing bytes, so a
//     v1 decoder reads the v1 prefix of a v2 body and a v2 decoder gates
//     the appended fields on the version byte.
//   - Kinds are append-only too (see the MsgKind block in wire.go): a
//     receiver that does not know a kind drops the message, it never
//     misdecodes one.
//
// The codec is negotiated per connection (see internal/tcpnet): peers open
// with a CodecHello and fall back to gob for peers that never say hello, so
// old binaries interoperate. Cold-path bodies with deeply nested payloads
// (catalogs, stats dumps) keep gob under the typed surface via AppendGob/
// DecodeGob — negotiation and the Body API are uniform, only their bytes
// stay self-describing.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// CodecID identifies a body encoding on the wire.
type CodecID uint8

const (
	// CodecGob is the legacy reflection codec: self-describing, slow, and
	// what every peer speaks — the negotiation fallback.
	CodecGob CodecID = 0
	// CodecBinary is the compact hand-rolled codec defined in this file.
	CodecBinary CodecID = 1
)

// String names the codec for stats, metrics and logs.
func (c CodecID) String() string {
	switch c {
	case CodecGob:
		return "gob"
	case CodecBinary:
		return "binary"
	}
	return fmt.Sprintf("CodecID(%d)", uint8(c))
}

// CodecByName resolves a codec knob value ("binary" or "gob"; empty selects
// binary, the default).
func CodecByName(name string) (CodecID, error) {
	switch name {
	case "", "binary":
		return CodecBinary, nil
	case "gob":
		return CodecGob, nil
	}
	return 0, fmt.Errorf("wire: unknown codec %q (want binary or gob)", name)
}

// Body is implemented by every message body. Implementations use pointer
// receivers: DecodeFrom mutates, and passing *T keeps gob's encoding of the
// fallback path byte-identical to the historical value encodes (gob
// flattens the pointer).
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

// Payload is the received view of a body: the raw bytes plus the codec they
// were encoded with. Handlers decode it into the typed body for the
// envelope's kind.
type Payload struct {
	Codec CodecID
	Bytes []byte
}

// Decode decodes the payload into the typed body, dispatching on the codec
// it arrived under.
func (p Payload) Decode(into Body) error {
	if p.Codec == CodecBinary {
		return into.DecodeFrom(p.Bytes)
	}
	return Unmarshal(p.Bytes, into)
}

// ---- Kind → constructor registry ----

type bodyKey struct {
	kind  MsgKind
	reply bool
}

var bodyCtors = map[bodyKey]func() Body{}

// RegisterBody records the constructor for the body type carried by (kind,
// reply) envelopes — the typed replacement for gob.Register. It must be
// called during package initialization (the map is read lock-free
// afterwards); packages owning cold-path bodies (site stats, nameserver
// catalogs) register theirs alongside the wire kinds registered here.
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

// ---- Gob escape hatch ----

// gobBufPool recycles encode buffers across Marshal/AppendGob calls: the
// gob fallback still builds a fresh encoder per message (that is the cost
// the binary codec retires), but at least the buffer churn is gone.
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// AppendGob appends the gob encoding of v to buf — the escape hatch for
// cold-path bodies (catalogs, stats dumps) whose nested types are not worth
// hand-rolled encoders. An encode error (unreachable for the registered
// body types) leaves the payload truncated; the receiver's decode then
// fails and the message is lost, which the unreliable-network contract
// already allows.
func AppendGob(buf []byte, v any) []byte {
	b := gobBufPool.Get().(*bytes.Buffer)
	b.Reset()
	if err := gob.NewEncoder(b).Encode(v); err == nil {
		buf = append(buf, b.Bytes()...)
	}
	gobBufPool.Put(b)
	return buf
}

// DecodeGob decodes a gob payload produced by AppendGob into v.
func DecodeGob(b []byte, v any) error {
	return Unmarshal(b, v)
}

// ---- Encoding helpers ----

// bodyVersion is the current version byte every hand-rolled body encoding
// opens with. Bump per body (not globally) when appending fields.
const bodyVersion = 1

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

// version reads and validates the leading version byte. Decoders tolerate
// newer versions (append-only fields: the known prefix still decodes).
func (r *bodyReader) version() byte {
	v := r.byte()
	if r.err == nil && v == 0 {
		r.fail("version")
	}
	return v
}

// ---- Hand-rolled encoders, one pair per body ----
//
// Collections encode as a uvarint count followed by the elements; a zero
// count decodes to a nil slice/map, matching gob's round-trip of empty
// collections so the two codecs are semantically interchangeable.

func (b *ErrorBody) Kind() MsgKind { return KindError }

func (b *ErrorBody) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = append(buf, byte(b.Cause))
	return appendString(buf, b.Reason)
}

func (b *ErrorBody) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Cause = model.AbortCause(r.byte())
	b.Reason = r.str()
	return r.err
}

func (b *OKBody) Kind() MsgKind { return KindOK }

func (b *OKBody) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *OKBody) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	return r.err
}

func (b *RegisterSiteReq) Kind() MsgKind { return KindRegisterSite }

func (b *RegisterSiteReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendString(buf, string(b.Site))
	return appendString(buf, b.Addr)
}

func (b *RegisterSiteReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Site = model.SiteID(r.str())
	b.Addr = r.str()
	return r.err
}

func (b *GetCatalogReq) Kind() MsgKind { return KindGetCatalog }

func (b *GetCatalogReq) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *GetCatalogReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	return r.err
}

func (b *PingReq) Kind() MsgKind { return KindPing }

func (b *PingReq) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *PingReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	return r.err
}

func (b *ReleaseTxReq) Kind() MsgKind { return KindReleaseTx }

func (b *ReleaseTxReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *ReleaseTxReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	return r.err
}

func (b *PrepareReq) Kind() MsgKind { return KindPrepare }

func (b *PrepareReq) AppendTo(buf []byte) []byte {
	// Version 2 appended per-write delta flags (commutative blind-add
	// records), at the end so version-1 decoders never see them.
	buf = append(buf, 2)
	buf = appendTx(buf, b.Tx)
	buf = appendTS(buf, b.TS)
	buf = appendString(buf, string(b.Coordinator))
	buf = appendUvarint(buf, uint64(len(b.Writes)))
	for _, w := range b.Writes {
		buf = appendString(buf, string(w.Item))
		buf = appendVarint(buf, w.Value)
		buf = appendUvarint(buf, uint64(w.Version))
	}
	buf = appendUvarint(buf, uint64(len(b.Participants)))
	for _, s := range b.Participants {
		buf = appendString(buf, string(s))
	}
	buf = appendBool(buf, b.ThreePhase)
	buf = appendBool(buf, false) // reserved: the retired read-only-optimization ablation flag
	buf = appendUvarint(buf, b.Epoch)
	buf = appendUvarint(buf, uint64(len(b.Voters)))
	for _, s := range b.Voters {
		buf = appendString(buf, string(s))
	}
	buf = appendUvarint(buf, b.Incarnation)
	// Version-2 fields: one delta flag per write, in write order.
	for _, w := range b.Writes {
		buf = appendBool(buf, w.Delta)
	}
	return buf
}

func (b *PrepareReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	v := r.version()
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
	r.bool() // reserved (see AppendTo)
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
	if v >= 2 {
		for i := range b.Writes {
			b.Writes[i].Delta = r.bool()
		}
	}
	return r.err
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
	r.version()
	b.Yes = r.bool()
	b.ReadOnly = r.bool()
	b.Reason = r.str()
	return r.err
}

func (b *PreCommitReq) Kind() MsgKind { return KindPreCommit }

func (b *PreCommitReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *PreCommitReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	return r.err
}

func (b *DecisionMsg) Kind() MsgKind { return KindDecision }

func (b *DecisionMsg) AppendTo(buf []byte) []byte {
	// Version 2 appended Lazy.
	buf = append(buf, 2)
	buf = appendTx(buf, b.Tx)
	buf = appendBool(buf, b.Commit)
	return appendBool(buf, b.Lazy)
}

func (b *DecisionMsg) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	v := r.version()
	b.Tx = r.tx()
	b.Commit = r.bool()
	b.Lazy = v >= 2 && r.bool()
	return r.err
}

func (b *AckMsg) Kind() MsgKind { return KindAck }

func (b *AckMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *AckMsg) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	return r.err
}

func (b *EndTxMsg) Kind() MsgKind { return KindEndTx }

func (b *EndTxMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *EndTxMsg) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	return r.err
}

func (b *GetEpochReq) Kind() MsgKind { return KindGetEpoch }

func (b *GetEpochReq) AppendTo(buf []byte) []byte { return append(buf, bodyVersion) }

func (b *GetEpochReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	return r.err
}

func (b *EpochResp) Kind() MsgKind { return KindGetEpoch }

func (b *EpochResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendUvarint(buf, b.Epoch)
}

func (b *EpochResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Epoch = r.uvarint()
	return r.err
}

func (b *DecisionReq) Kind() MsgKind { return KindDecisionReq }

func (b *DecisionReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendTx(buf, b.Tx)
	return appendBool(buf, b.ThreePhase)
}

func (b *DecisionReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	b.ThreePhase = r.bool()
	return r.err
}

func (b *DecisionResp) Kind() MsgKind { return KindDecision }

func (b *DecisionResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendBool(buf, b.Known)
	return appendBool(buf, b.Commit)
}

func (b *DecisionResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Known = r.bool()
	b.Commit = r.bool()
	return r.err
}

func (b *TermStateReq) Kind() MsgKind { return KindTermState }

func (b *TermStateReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return appendTx(buf, b.Tx)
}

func (b *TermStateReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	return r.err
}

func (b *TermStateResp) Kind() MsgKind { return KindTermState }

func (b *TermStateResp) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return append(buf, b.State)
}

func (b *TermStateResp) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.State = r.byte()
	return r.err
}

func (b *TermQueryReq) Kind() MsgKind { return KindTermQuery }

func (b *TermQueryReq) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	buf = appendTx(buf, b.Tx)
	return appendBallot(buf, b.Ballot)
}

func (b *TermQueryReq) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Tx = r.tx()
	b.Ballot = r.ballot()
	return r.err
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
	r.version()
	b.Accepted = r.bool()
	b.EA = r.ballot()
	b.State = r.byte()
	b.EB = r.ballot()
	b.Decided = r.bool()
	b.Commit = r.bool()
	return r.err
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
	r.version()
	b.Tx = r.tx()
	b.Ballot = r.ballot()
	b.Commit = r.bool()
	return r.err
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
	r.version()
	b.Accepted = r.bool()
	b.Decided = r.bool()
	b.Commit = r.bool()
	return r.err
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
	r.version()
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
	return r.err
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
	r.version()
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
	return r.err
}

func (b *CopyBatchReq) Kind() MsgKind { return KindCopyBatch }

func (b *CopyBatchReq) AppendTo(buf []byte) []byte {
	// Version 2 appended the read-only fold's Final flag and Epoch, version
	// 3 the add-only wave's NoWait and Vote flags and Cohort, version 4 the
	// voting last leg's Floors.
	buf = append(buf, 4)
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
	v := r.version()
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
	if v >= 2 {
		b.Final = r.bool()
		b.Epoch = r.uvarint()
	}
	if v >= 3 {
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
	}
	if v >= 4 {
		if n := r.count(); n > 0 {
			b.Floors = make([]model.Version, n)
			for i := range b.Floors {
				b.Floors[i] = model.Version(r.uvarint())
			}
		} else {
			b.Floors = nil
		}
	}
	return r.err
}

func (b *CopyBatchResp) Kind() MsgKind { return KindCopyBatch }

func (b *CopyBatchResp) AppendTo(buf []byte) []byte {
	// Version 2 appended Released (the read-only fold's answer), version 3
	// Voted and WouldBlock (the add-only wave's answers).
	buf = append(buf, 3)
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
	v := r.version()
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
	if v >= 2 {
		b.Released = r.bool()
	}
	if v >= 3 {
		b.Voted = r.bool()
		b.WouldBlock = r.bool()
	}
	return r.err
}

// HelloBody is the codec-negotiation handshake (KindCodecHello): each side
// of a batched connection announces the body codec it accepts right after
// the frame magic. Peers that predate negotiation simply drop the unknown
// kind — their absence of a hello is what keeps the connection on gob.
type HelloBody struct {
	// Codec is the richest codec the sender accepts for inbound bodies.
	Codec CodecID
}

func (b *HelloBody) Kind() MsgKind { return KindCodecHello }

func (b *HelloBody) AppendTo(buf []byte) []byte {
	buf = append(buf, bodyVersion)
	return append(buf, byte(b.Codec))
}

func (b *HelloBody) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	r.version()
	b.Codec = CodecID(r.byte())
	return r.err
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
	RegisterBody(KindTermState, false, func() Body { return &TermStateReq{} })
	RegisterBody(KindTermState, true, func() Body { return &TermStateResp{} })
	RegisterBody(KindTermQuery, false, func() Body { return &TermQueryReq{} })
	RegisterBody(KindTermQuery, true, func() Body { return &TermQueryResp{} })
	RegisterBody(KindTermPreDecide, false, func() Body { return &TermPreDecideReq{} })
	RegisterBody(KindTermPreDecide, true, func() Body { return &TermPreDecideResp{} })
	RegisterBody(KindSubmitTx, false, func() Body { return &SubmitTxReq{} })
	RegisterBody(KindSubmitTx, true, func() Body { return &SubmitTxResp{} })
	RegisterBody(KindGetStats, false, func() Body { return &PingReq{} })
	RegisterBody(KindResetStats, false, func() Body { return &PingReq{} })
	RegisterBody(KindGetHistory, false, func() Body { return &PingReq{} })
	RegisterBody(KindCodecHello, false, func() Body { return &HelloBody{} })
	RegisterBody(KindCopyBatch, false, func() Body { return &CopyBatchReq{} })
	RegisterBody(KindCopyBatch, true, func() Body { return &CopyBatchResp{} })
}
