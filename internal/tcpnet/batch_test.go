package tcpnet

import (
	"context"
	"fmt"
	"net"
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
	buf, _, _ := appendFrame(nil, in, wire.CodecGob, &tmp)
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
	buf, _, _ := appendFrame(nil, []*wire.Envelope{
		{From: "a", To: "b", Kind: wire.KindPing, Corr: 7, Payload: []byte("payload")},
		{From: "b", To: "a", Kind: wire.KindVote, Corr: 8, Payload: []byte("more")},
	}, wire.CodecGob, &tmp)
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

// TestLegacyFramingInterop runs an RPC round trip between a legacy-framing
// net (no magic, plain gob stream — a peer predating multi-envelope frames)
// and a current one, in both directions.
func TestLegacyFramingInterop(t *testing.T) {
	oldNet := NewWithOptions(nil, Options{LegacyFraming: true})
	newNet := New(nil)

	oldPeer, err := wire.NewPeer(oldNet, "old", func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay wire.Payload) (wire.MsgKind, wire.Body, error) {
		return wire.KindOK, &wire.OKBody{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oldPeer.Close()
	newPeer, err := wire.NewPeer(newNet, "new", func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay wire.Payload) (wire.MsgKind, wire.Body, error) {
		return wire.KindOK, &wire.OKBody{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer newPeer.Close()

	// The two Nets are separate processes in spirit: exchange addresses.
	oldAddr, _ := oldNet.Addr("old")
	newAddr, _ := newNet.Addr("new")
	oldNet.SetAddr("new", newAddr)
	newNet.SetAddr("old", oldAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	// old → new: the acceptor must sniff the missing magic and fall back.
	if err := oldPeer.Call(ctx, "new", wire.KindPing, &wire.OKBody{}, nil); err != nil {
		t.Fatalf("legacy → batched call: %v", err)
	}
	// new → old: the dialer must speak legacy (knob) and parse a gob reply.
	if err := newPeer.Call(ctx, "old", wire.KindPing, &wire.OKBody{}, nil); err != nil {
		t.Fatalf("batched → legacy call: %v", err)
	}
	if st := newNet.NetStats(); st.LegacyConns == 0 {
		t.Error("batched net accepted a legacy connection but counted none")
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
	server, err := wire.NewPeer(n, "server", func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay wire.Payload) (wire.MsgKind, wire.Body, error) {
		var req wire.CopyBatchReq
		if err := pay.Decode(&req); err != nil {
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

// codecEchoServe is a CopyBatch echo handler for the negotiation tests: the
// reply carries the request's sequence number back, so a codec mismatch
// that corrupted a body would surface as a wrong value, not just an error.
func codecEchoServe(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay wire.Payload) (wire.MsgKind, wire.Body, error) {
	var req wire.CopyBatchReq
	if err := pay.Decode(&req); err != nil {
		return 0, nil, err
	}
	return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: req.Tx.Seq, Incarnation: 1}, nil
}

// TestCodecNegotiationUpgradesToBinary connects two current nets and
// verifies the CodecHello handshake settles both directions on the compact
// binary codec: after a burst of RPCs each way, both sides must have sent
// binary-encoded bodies (only the dialer's pre-hello requests may ride the
// gob fallback).
func TestCodecNegotiationUpgradesToBinary(t *testing.T) {
	aNet, bNet := New(nil), New(nil)
	aPeer, err := wire.NewPeer(aNet, "A", codecEchoServe)
	if err != nil {
		t.Fatal(err)
	}
	defer aPeer.Close()
	bPeer, err := wire.NewPeer(bNet, "B", codecEchoServe)
	if err != nil {
		t.Fatal(err)
	}
	defer bPeer.Close()
	aAddr, _ := aNet.Addr("A")
	bAddr, _ := bNet.Addr("B")
	aNet.SetAddr("B", bAddr)
	bNet.SetAddr("A", aAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 8; i++ {
		resp, err := wire.Call[wire.CopyBatchResp](ctx, aPeer, "B", wire.KindCopyBatch,
			&wire.CopyBatchReq{Tx: model.TxID{Site: "A", Seq: uint64(i)}})
		if err != nil || resp.Clock != uint64(i) {
			t.Fatalf("A→B call %d: value=%v err=%v", i, resp, err)
		}
		resp, err = wire.Call[wire.CopyBatchResp](ctx, bPeer, "A", wire.KindCopyBatch,
			&wire.CopyBatchReq{Tx: model.TxID{Site: "B", Seq: uint64(i)}})
		if err != nil || resp.Clock != uint64(i) {
			t.Fatalf("B→A call %d: value=%v err=%v", i, resp, err)
		}
	}
	if st := aNet.NetStats(); st.SentBinaryBodies == 0 {
		t.Errorf("A sent no binary bodies after negotiation: %+v", st)
	}
	if st := bNet.NetStats(); st.SentBinaryBodies == 0 {
		t.Errorf("B sent no binary bodies after negotiation: %+v", st)
	}
}

// TestCodecGobPinnedPeerInterop runs a mixed cluster: one peer pins the
// gob codec (the net_codec=gob ablation — stands in for an old binary that
// predates the CodecHello), the other negotiates. Both directions must land
// on gob — the pinned side never offers binary, so the negotiating side
// must never send a binary body at it — and every RPC must still round-trip
// correct values.
func TestCodecGobPinnedPeerInterop(t *testing.T) {
	gobNet := NewWithOptions(nil, Options{Codec: "gob"})
	binNet := New(nil)
	gobPeer, err := wire.NewPeer(gobNet, "old", codecEchoServe)
	if err != nil {
		t.Fatal(err)
	}
	defer gobPeer.Close()
	binPeer, err := wire.NewPeer(binNet, "new", codecEchoServe)
	if err != nil {
		t.Fatal(err)
	}
	defer binPeer.Close()
	gobAddr, _ := gobNet.Addr("old")
	binAddr, _ := binNet.Addr("new")
	gobNet.SetAddr("new", binAddr)
	binNet.SetAddr("old", gobAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 8; i++ {
		resp, err := wire.Call[wire.CopyBatchResp](ctx, gobPeer, "new", wire.KindCopyBatch,
			&wire.CopyBatchReq{Tx: model.TxID{Site: "old", Seq: uint64(i)}})
		if err != nil || resp.Clock != uint64(i) {
			t.Fatalf("gob→binary call %d: value=%v err=%v", i, resp, err)
		}
		resp, err = wire.Call[wire.CopyBatchResp](ctx, binPeer, "old", wire.KindCopyBatch,
			&wire.CopyBatchReq{Tx: model.TxID{Site: "new", Seq: uint64(i)}})
		if err != nil || resp.Clock != uint64(i) {
			t.Fatalf("binary→gob call %d: value=%v err=%v", i, resp, err)
		}
	}
	if st := gobNet.NetStats(); st.SentBinaryBodies != 0 || st.SentGobBodies == 0 {
		t.Errorf("gob-pinned peer codec counters: %+v", st)
	}
	if st := binNet.NetStats(); st.SentBinaryBodies != 0 {
		t.Errorf("negotiating peer sent binary bodies at a gob-pinned peer: %+v", st)
	}
	if st := binNet.NetStats(); st.SentGobBodies == 0 {
		t.Errorf("negotiating peer sent no gob bodies: %+v", st)
	}
}
