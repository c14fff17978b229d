package tcpnet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/model"
	"repro/internal/wire"
)

// Framing. Each connection direction starts with the 8-byte magic
// preamble, then carries a stream of length-prefixed multi-envelope frames:
//
//	[u32 frameLen][u32 count][count × ([u32 envLen][envLen bytes])]
//
// frameLen counts everything after the frameLen field itself, so a receiver
// reads one length, then the whole frame in one ReadFull, then slices the
// envelopes out of the buffer with no further syscalls. Inside a frame each
// envelope is independently decodable from its own bytes (the compact
// encoding below), and its body payload is the wire.Body binary encoding.
// A stream that does not open with the magic is not Rainbow traffic and
// is closed.

// frameMagic opens every connection direction.
var frameMagic = [8]byte{0xFB, 'b', 'w', 'F', 'r', 'm', '0', '1'}

// maxFrameBytes bounds one frame (a garbage length prefix would otherwise
// drive huge allocations); maxFrameEnvelopes bounds the envelope count.
const (
	maxFrameBytes     = 64 << 20
	maxFrameEnvelopes = 1 << 16
)

// appendEnvelope serializes env onto buf: uvarint-length-prefixed From, To
// and payload, uvarint Kind and Corr, and a flags byte (bit 0 = Reply,
// bit 1 = a uvarint trace ID follows). Untraced envelopes — the common
// case — spend only the flag bit. payload is the encoded body (env.Payload
// for pre-flattened envelopes).
func appendEnvelope(buf []byte, env *wire.Envelope, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(env.From)))
	buf = append(buf, env.From...)
	buf = binary.AppendUvarint(buf, uint64(len(env.To)))
	buf = append(buf, env.To...)
	buf = binary.AppendUvarint(buf, uint64(env.Kind))
	buf = binary.AppendUvarint(buf, env.Corr)
	var flags byte
	if env.Reply {
		flags |= 1
	}
	if env.Trace != 0 {
		flags |= 2
	}
	buf = append(buf, flags)
	if env.Trace != 0 {
		buf = binary.AppendUvarint(buf, env.Trace)
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// decodeEnvelope parses one envelope from its frame slot. The payload is
// copied out of the frame buffer (the buffer is reused across frames while
// handlers may retain the envelope).
func decodeEnvelope(b []byte) (*wire.Envelope, error) {
	env := &wire.Envelope{}
	readStr := func() (string, error) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return "", fmt.Errorf("tcpnet: truncated envelope")
		}
		s := string(b[sz : sz+int(n)])
		b = b[sz+int(n):]
		return s, nil
	}
	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(b)
		if sz <= 0 {
			return 0, fmt.Errorf("tcpnet: truncated envelope")
		}
		b = b[sz:]
		return v, nil
	}
	from, err := readStr()
	if err != nil {
		return nil, err
	}
	to, err := readStr()
	if err != nil {
		return nil, err
	}
	kind, err := readUvarint()
	if err != nil {
		return nil, err
	}
	corr, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("tcpnet: truncated envelope")
	}
	flags := b[0]
	b = b[1:]
	var traceID uint64
	if flags&2 != 0 {
		traceID, err = readUvarint()
		if err != nil {
			return nil, err
		}
	}
	plen, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < plen {
		return nil, fmt.Errorf("tcpnet: truncated envelope payload")
	}
	env.From = model.SiteID(from)
	env.To = model.SiteID(to)
	env.Kind = wire.MsgKind(kind)
	env.Corr = corr
	env.Reply = flags&1 != 0
	env.Trace = traceID
	if plen > 0 {
		env.Payload = append([]byte(nil), b[sz:sz+int(plen)]...)
	}
	return env, nil
}

// appendFrame frames a batch of envelopes onto buf, encoding each typed
// body (bodies already flattened ride as-is). tmp is the write-lock
// holder's reusable body-encode scratch, so the write path allocates
// neither frame nor body buffers in steady state.
func appendFrame(buf []byte, batch []*wire.Envelope, tmp *[]byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // frameLen placeholder
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(batch)))
	for _, env := range batch {
		payload := env.Payload
		if env.Body != nil {
			*tmp = env.Body.AppendTo((*tmp)[:0])
			payload = *tmp
		}
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // envLen placeholder
		buf = appendEnvelope(buf, env, payload)
		binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// decodeFrame parses the body of one frame (everything after the frameLen
// prefix) into envelopes.
func decodeFrame(b []byte) ([]*wire.Envelope, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("tcpnet: truncated frame header")
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if count == 0 || count > maxFrameEnvelopes {
		return nil, fmt.Errorf("tcpnet: bad frame envelope count %d", count)
	}
	envs := make([]*wire.Envelope, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("tcpnet: truncated frame")
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("tcpnet: truncated frame")
		}
		env, err := decodeEnvelope(b[:n])
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("tcpnet: %d trailing bytes in frame", len(b))
	}
	return envs, nil
}
