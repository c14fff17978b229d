package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/model"
)

// Records are serialized by the binary encoding below. Segments frame every
// payload with a length prefix and a CRC32, so torn and corrupt records are
// detected positively (checksum mismatch) instead of by parse failure.

// codecIDBinary is the codec byte every segment header carries; a segment
// naming any other codec fails to open.
const codecIDBinary uint8 = 1

// ---- Frame layer ----

// frameHeaderSize is the per-record framing overhead: a uint32 payload
// length followed by a uint32 CRC32 (IEEE) of the payload.
const frameHeaderSize = 8

// maxFrameSize bounds a single record payload; larger frames are treated as
// corruption (a garbage length prefix would otherwise drive huge reads).
const maxFrameSize = 64 << 20

// appendFrame frames one encoded record payload.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ---- Binary codec ----

// binaryVersion is the binary record-encoding version byte. Records have one
// layout, version 3's: versions 1 and 2, which lacked the termination fields
// and the per-write delta flags, are refused.
const binaryVersion = 3

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendRecord appends the binary encoding of r to buf: varint-encoded
// integers and length-prefixed strings, allocation-free to encode.
func appendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, binaryVersion, byte(r.Type))
	var flags byte
	if r.ThreePhase {
		flags |= 1
	}
	if r.Commit {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = appendString(buf, string(r.Tx.Site))
	buf = binary.AppendUvarint(buf, r.Tx.Seq)
	buf = binary.AppendUvarint(buf, r.TS.Time)
	buf = appendString(buf, string(r.TS.Site))
	buf = appendString(buf, string(r.Coordinator))
	buf = binary.AppendUvarint(buf, uint64(len(r.Participants)))
	for _, p := range r.Participants {
		buf = appendString(buf, string(p))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Writes)))
	for _, w := range r.Writes {
		buf = appendString(buf, string(w.Item))
		buf = binary.AppendVarint(buf, w.Value)
		buf = binary.AppendUvarint(buf, uint64(w.Version))
	}
	buf = binary.AppendUvarint(buf, r.Horizon)
	buf = binary.AppendUvarint(buf, uint64(len(r.Voters)))
	for _, p := range r.Voters {
		buf = appendString(buf, string(p))
	}
	buf = binary.AppendUvarint(buf, r.Ballot.N)
	buf = appendString(buf, string(r.Ballot.Site))
	// One delta flag per write, in write order.
	for _, w := range r.Writes {
		var delta byte
		if w.Delta {
			delta = 1
		}
		buf = append(buf, delta)
	}
	return buf
}

// binReader walks a binary payload, latching the first error.
type binReader struct {
	b   []byte
	err error
}

func (d *binReader) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated binary record")
	}
}

func (d *binReader) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *binReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) string() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// sites reads a length-prefixed list of site ids (nil when empty).
func (d *binReader) sites() []model.SiteID {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := make([]model.SiteID, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, model.SiteID(d.string()))
	}
	return out
}

// decodeRecord parses one payload produced by appendRecord. It fails unless
// the payload is read to its last byte, since nothing follows a record.
func decodeRecord(payload []byte) (Record, error) {
	d := &binReader{b: payload}
	if version := d.byte(); d.err == nil && version != binaryVersion {
		return Record{}, fmt.Errorf("wal: unsupported binary record version %d", version)
	}
	var r Record
	r.Type = RecType(d.byte())
	flags := d.byte()
	r.ThreePhase = flags&1 != 0
	r.Commit = flags&2 != 0
	r.Tx.Site = model.SiteID(d.string())
	r.Tx.Seq = d.uvarint()
	r.TS.Time = d.uvarint()
	r.TS.Site = model.SiteID(d.string())
	r.Coordinator = model.SiteID(d.string())
	r.Participants = d.sites()
	if n := d.uvarint(); d.err == nil && n > 0 {
		if n > uint64(len(d.b)) {
			d.fail()
		} else {
			r.Writes = make([]model.WriteRecord, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				var w model.WriteRecord
				w.Item = model.ItemID(d.string())
				w.Value = d.varint()
				w.Version = model.Version(d.uvarint())
				r.Writes = append(r.Writes, w)
			}
		}
	}
	r.Horizon = d.uvarint()
	r.Voters = d.sites()
	r.Ballot.N = d.uvarint()
	r.Ballot.Site = model.SiteID(d.string())
	for i := range r.Writes {
		r.Writes[i].Delta = d.byte() != 0
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("wal: %d trailing bytes after binary record", len(d.b))
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return r, nil
}
