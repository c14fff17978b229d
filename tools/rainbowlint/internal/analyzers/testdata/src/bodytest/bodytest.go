// Package bodytest exercises bodycheck: RegisterBody coverage, version
// bytes, encode/decode field-sequence symmetry, and kindNames
// completeness. The scaffolding mirrors internal/wire's shapes (helper
// names, bodyReader methods) without importing it.
package bodytest

type TxID struct {
	Site string
	Seq  uint64
}

type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) version() byte   { return 0 }
func (r *bodyReader) bool() bool      { return false }
func (r *bodyReader) uvarint() uint64 { return 0 }
func (r *bodyReader) str() string     { return "" }
func (r *bodyReader) count() int      { return 0 }
func (r *bodyReader) tx() TxID        { return TxID{} }

func appendUvarint(b []byte, v uint64) []byte { return b }
func appendBool(b []byte, v bool) []byte      { return b }
func appendString(b []byte, s string) []byte  { return b }
func appendTx(b []byte, tx TxID) []byte       { return b }

func AppendJSON(b []byte, v any) []byte { return b }
func DecodeJSON(p []byte, v any) error  { return nil }

type Body interface {
	AppendTo([]byte) []byte
	DecodeFrom([]byte) error
}

func RegisterBody(kind MsgKind, mk func() Body) {}

func init() {
	RegisterBody(KindGood, func() Body { return new(GoodBody) })
	RegisterBody(KindNoVersion, func() Body { return new(BadNoVersion) })
	RegisterBody(KindReordered, func() Body { return new(BadReordered) })
	RegisterBody(KindShort, func() Body { return new(BadShort) })
	RegisterBody(KindJSON, func() Body { return &JSONBody{} })
}

// GoodBody follows every convention: registered, versioned, symmetric,
// with a count-prefixed repeated group.
type GoodBody struct {
	Tx    TxID
	Name  string
	Flags uint64
	Keys  []string
}

func (m *GoodBody) AppendTo(buf []byte) []byte {
	buf = append(buf, 1)
	buf = appendString(appendTx(buf, m.Tx), m.Name)
	buf = appendUvarint(buf, m.Flags)
	buf = appendUvarint(buf, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		buf = appendString(buf, k)
	}
	return buf
}

func (m *GoodBody) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	_ = r.version()
	m.Tx = r.tx()
	m.Name = r.str()
	m.Flags = r.uvarint()
	if n := r.count(); n > 0 {
		m.Keys = make([]string, 0, n)
		for i := 0; i < n; i++ {
			m.Keys = append(m.Keys, r.str())
		}
	}
	return r.err
}

// BadNoVersion skips the version byte on both sides.
type BadNoVersion struct{ N uint64 }

func (m *BadNoVersion) AppendTo(buf []byte) []byte { // want `BadNoVersion: AppendTo does not open with a version byte`
	return appendUvarint(buf, m.N)
}

func (m *BadNoVersion) DecodeFrom(p []byte) error { // want `BadNoVersion: DecodeFrom does not read the version byte first`
	r := bodyReader{b: p}
	m.N = r.uvarint()
	return r.err
}

// BadReordered decodes its fields in the opposite order.
type BadReordered struct {
	Name string
	N    uint64
}

func (m *BadReordered) AppendTo(buf []byte) []byte {
	buf = append(buf, 1)
	buf = appendString(buf, m.Name)
	return appendUvarint(buf, m.N)
}

func (m *BadReordered) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	_ = r.version()
	m.N = r.uvarint() // want `BadReordered: field #1 mismatch: AppendTo writes string but DecodeFrom reads uvarint`
	m.Name = r.str()
	return r.err
}

// BadShort decodes fewer fields than the encoder writes.
type BadShort struct{ A, B bool }

func (m *BadShort) AppendTo(buf []byte) []byte {
	buf = append(buf, 1)
	buf = appendBool(buf, m.A)
	return appendBool(buf, m.B)
}

func (m *BadShort) DecodeFrom(p []byte) error { // want `BadShort: AppendTo writes 2 fields`
	r := bodyReader{b: p}
	_ = r.version()
	m.A = r.bool()
	return r.err
}

// JSONBody is pure JSON: the helpers write and check its version byte.
type JSONBody struct{ M map[string]int }

func (m *JSONBody) AppendTo(buf []byte) []byte { return AppendJSON(buf, m) }
func (m *JSONBody) DecodeFrom(p []byte) error  { return DecodeJSON(p, m) }

// Orphan has both codec methods but no RegisterBody entry.
type Orphan struct{ N uint64 }

func (m *Orphan) AppendTo(buf []byte) []byte { // want `wire body Orphan is not registered with RegisterBody`
	buf = append(buf, 1)
	return appendUvarint(buf, m.N)
}

func (m *Orphan) DecodeFrom(p []byte) error {
	r := bodyReader{b: p}
	_ = r.version()
	m.N = r.uvarint()
	return r.err
}

// MsgKind and kindNames: the names map must cover every constant.
type MsgKind uint16

const (
	KindGood MsgKind = iota
	KindNoVersion
	KindReordered
	KindShort
	KindJSON
	KindUnnamed // want `MsgKind constant KindUnnamed has no kindNames entry`
)

var kindNames = map[MsgKind]string{
	KindGood:      "good",
	KindNoVersion: "no-version",
	KindReordered: "reordered",
	KindShort:     "short",
	KindJSON:      "json",
}
