package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestFrameRoundTrip exercises the multi-envelope frame codec: every field
// combination (empty/large payloads, reply flags, zero correlations) must
// survive encode → decode bit-exactly.
func TestFrameRoundTrip(t *testing.T) {
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = byte(i)
	}
	in := []*wire.Envelope{
		{From: "a", To: "b", Kind: wire.KindPing, Corr: 1, Payload: []byte("x")},
		{From: "b", To: "a", Kind: wire.KindCopyBatch, Corr: 42, Reply: true, Payload: big},
		{From: "site-with-long-name", To: "Z", Kind: wire.KindDecision, Corr: 0, Payload: nil},
		{From: "", To: "", Kind: 0, Corr: 1<<64 - 1, Reply: true, Payload: []byte{}},
	}
	var tmp []byte
	buf := appendFrame(nil, in, &tmp)
	out, err := decodeFrame(buf[4:]) // skip the frameLen prefix ReadFull consumes
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d envelopes, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.From != b.From || a.To != b.To || a.Kind != b.Kind || a.Corr != b.Corr || a.Reply != b.Reply {
			t.Errorf("envelope %d header mismatch: %+v vs %+v", i, a, b)
		}
		if string(a.Payload) != string(b.Payload) {
			t.Errorf("envelope %d payload mismatch (%d vs %d bytes)", i, len(a.Payload), len(b.Payload))
		}
	}
}

// TestFrameDecodeRejectsCorruption feeds truncations and corruptions of a
// valid frame to the decoder; every one must error, never panic or succeed.
func TestFrameDecodeRejectsCorruption(t *testing.T) {
	var tmp []byte
	buf := appendFrame(nil, []*wire.Envelope{
		{From: "a", To: "b", Kind: wire.KindPing, Corr: 7, Payload: []byte("payload")},
		{From: "b", To: "a", Kind: wire.KindVote, Corr: 8, Payload: []byte("more")},
	}, &tmp)
	body := buf[4:]
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeFrame(body[:cut]); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	if _, err := decodeFrame(append(append([]byte{}, body...), 0xEE)); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
}

// TestMultiEnvelopeFrames drives enough traffic through one connection that
// the writer coalesces multiple envelopes per flush, and verifies (a) the
// receiver's batch handler sees multi-envelope slices and (b) the flush
// count stays well below the envelope count — the syscalls-per-op win.
func TestMultiEnvelopeFrames(t *testing.T) {
	n := NewWithOptions(nil, Options{FlushDelay: 20 * time.Millisecond})
	var envs, frames, maxFrame atomic.Int64
	b, err := n.AttachBatch("b", func(env *wire.Envelope) {
		envs.Add(1)
	}, func(batch []*wire.Envelope) {
		envs.Add(int64(len(batch)))
		frames.Add(1)
		if l := int64(len(batch)); l > maxFrame.Load() {
			maxFrame.Store(l)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const total = 64
	for i := 0; i < total; i++ {
		env := &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Corr: uint64(i + 1)}
		if err := a.Send(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return envs.Load() == total }, "not all envelopes delivered")
	if maxFrame.Load() < 2 {
		t.Errorf("no multi-envelope frame dispatched (max %d)", maxFrame.Load())
	}
	st := n.NetStats()
	if st.SentFlushes >= st.SentEnvelopes {
		t.Errorf("no send coalescing: %d flushes for %d envelopes", st.SentFlushes, st.SentEnvelopes)
	}
	if st.MaxSendBatch < 2 {
		t.Errorf("MaxSendBatch = %d, want >= 2", st.MaxSendBatch)
	}
}

// TestStreamWithoutMagicClosed connects peers that do not open with the
// frame magic — one speaking the retired single-envelope gob framing, one
// sending a well-formed frame without the preamble, one sending HTTP, one
// whose magic is off by its last byte — and verifies each is disconnected:
// nothing reaches the handler, no reply writer is started, and the read
// goroutine exits (VerifyMain checks for leaks).
func TestStreamWithoutMagicClosed(t *testing.T) {
	n := New(nil)
	var got atomic.Int32
	b, err := n.Attach("b", func(*wire.Envelope) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr, _ := n.Addr("b")

	var tmp []byte
	frame := appendFrame(nil, []*wire.Envelope{{From: "a", To: "b", Kind: wire.KindPing, Body: &wire.PingReq{}}}, &tmp)
	for name, stream := range map[string][]byte{
		// A gob stream opens with a small uvarint message length and a type
		// definition (this is the prefix the old framing sent).
		"gob":              {0x3f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 0x45, 0x6e, 0x76, 0x65, 0x6c, 0x6f, 0x70, 0x65},
		"frame, no magic":  frame,
		"http request":     []byte("GET /metrics HTTP/1.1\r\nHost: b\r\n\r\n"),
		"truncated magic+": append(append([]byte{}, frameMagic[:7]...), frame...),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(stream) //nolint:errcheck
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		if _, err := conn.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: connection not closed by the receiver (read err %v)", name, err)
		}
		conn.Close()
	}
	if got.Load() != 0 {
		t.Errorf("%d envelopes from streams without the frame magic reached the handler", got.Load())
	}
	ep := b.(*endpoint)
	ep.mu.Lock()
	live := len(ep.live)
	ep.mu.Unlock()
	if live != 0 {
		t.Errorf("%d reply writers started for rejected streams", live)
	}
}

// TestTornFrameDropsConnection opens raw connections that die mid-frame (a
// crashed peer, a cut network) and verifies the receiver tears them down
// without hanging a read loop or disturbing healthy peers.
func TestTornFrameDropsConnection(t *testing.T) {
	n := New(nil)
	var got atomic.Int32
	b, err := n.Attach("b", func(*wire.Envelope) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr, _ := n.Addr("b")

	// Torn mid-body: promise 1000 bytes, deliver 10, hang up.
	torn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	torn.Write(frameMagic[:])
	torn.Write([]byte{0xE8, 0x03, 0x00, 0x00}) // frameLen = 1000
	torn.Write(make([]byte, 10))
	torn.Close()

	// Garbage length prefix: must be rejected before any huge allocation.
	garbage, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	garbage.Write(frameMagic[:])
	garbage.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	garbage.Close()

	// A healthy peer still gets through afterwards.
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 }, "healthy peer starved after torn frames")
}

// TestReconnectResendsCurrentBatch kills the established connection under
// the sender and verifies the writer's redial-once path re-delivers without
// the caller seeing an error — the batched-framing equivalent of the old
// per-send retry. (The batch being re-sent may duplicate envelopes already
// flushed; the wire contract is at-most-once per send attempt with retry
// above, so duplicates are tolerated and only delivery is asserted.)
func TestReconnectResendsCurrentBatch(t *testing.T) {
	n := New(nil)
	var got atomic.Int32
	b, err := n.Attach("b", func(*wire.Envelope) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := n.Addr("b")
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() >= 1 }, "first message not delivered")

	// Restart b: the sender's cached connection is now stale, and the next
	// write hits a dead socket mid-stream.
	b.Close()
	n.SetAddr("b", addr)
	b2, err := n.Attach("b", func(*wire.Envelope) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	waitFor(t, func() bool {
		a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing}) //nolint:errcheck
		return got.Load() >= 2
	}, "message not delivered after restart under batched framing")
}

// TestSlowReaderBackpressure points a flood at a receiver whose handler
// never returns. The bounded send queue plus bounded stall must convert the
// overload into shed errors — never an unbounded buffer, never a deadlock.
func TestSlowReaderBackpressure(t *testing.T) {
	n := NewWithOptions(nil, Options{SendQueue: 2, SendStall: 30 * time.Millisecond})
	block := make(chan struct{})
	b, err := n.Attach("b", func(*wire.Envelope) { <-block })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer close(block)
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Large payloads fill the kernel socket buffers fast, so the writer
	// goroutine wedges in Write and the send queue backs up.
	payload := make([]byte, 256<<10)
	var shed error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Payload: payload})
		if err != nil {
			shed = err
			break
		}
	}
	if shed == nil {
		t.Fatal("flooding a blocked reader never shed a send")
	}
	if st := n.NetStats(); st.SendSheds == 0 {
		t.Error("shed error returned but SendSheds == 0")
	}
}

// TestBatchedRPCStress hammers one server with concurrent calls under
// batched framing (run with -race to exercise the frame codec, the writer
// goroutines and the batch reply dispatch together).
func TestBatchedRPCStress(t *testing.T) {
	n := New(nil)
	server, err := wire.NewPeer(n, "server", func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay []byte) (wire.MsgKind, wire.Body, error) {
		var req wire.CopyBatchReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: req.Tx.Seq}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	const clients, calls = 4, 64
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			client, err := wire.NewPeer(n, model.SiteID(fmt.Sprintf("client-%d", c)), nil)
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			for i := 0; i < calls; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				var resp wire.CopyBatchResp
				err := client.Call(ctx, "server", wire.KindCopyBatch, &wire.CopyBatchReq{Tx: model.TxID{Seq: uint64(i)}}, &resp)
				cancel()
				if err != nil {
					errCh <- fmt.Errorf("client %d call %d: %w", c, i, err)
					return
				}
				if resp.Clock != uint64(i) {
					errCh <- fmt.Errorf("client %d call %d: clock %d", c, i, resp.Clock)
					return
				}
			}
			errCh <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
