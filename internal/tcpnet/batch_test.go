package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
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

// TestMultiEnvelopeFrames wedges the receiver's reader so that a large
// envelope's write blocks its holder, queues ten senders behind it, then
// releases the reader: the next holder writes everything pending as one
// frame, so the receiver decodes fewer frames than envelopes and its batch
// handler sees a multi-envelope slice.
func TestMultiEnvelopeFrames(t *testing.T) {
	n := New(nil)
	release := make(chan struct{})
	var wedged sync.Once
	var maxFrame atomic.Int64
	b, err := n.AttachBatch("b", func(env *wire.Envelope) {
		if env.Corr == 1 {
			wedged.Do(func() { <-release })
		}
	}, func(batch []*wire.Envelope) {
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

	ctx := context.Background()
	if err := a.Send(ctx, &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Corr: 1}); err != nil {
		t.Fatal(err)
	}
	// More than the loopback socket buffers hold: its write blocks until
	// the reader is released.
	big := &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Corr: 2, Payload: make([]byte, 16<<20)}
	const senders = 10
	var wg sync.WaitGroup
	errs := make(chan error, senders+1)
	wg.Add(1)
	go func() { defer wg.Done(); errs <- a.Send(ctx, big) }()
	ep := a.(*endpoint)
	ep.mu.Lock()
	c := ep.conns["b"]
	ep.mu.Unlock()
	waitFor(t, func() bool { return len(c.wlock) == 1 }, "the large envelope's write never started")
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- a.Send(ctx, &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Corr: uint64(3 + i)})
		}(i)
	}
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == senders
	}, "senders did not queue behind the blocked write")
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	const total = senders + 2
	waitFor(t, func() bool { return n.NetStats().RecvEnvelopes == total }, "not all envelopes delivered")
	if st := n.NetStats(); st.RecvFrames >= st.RecvEnvelopes || st.SentFlushes >= st.SentEnvelopes {
		t.Errorf("no shared frame: %d frames for %d envelopes received, %d for %d sent",
			st.RecvFrames, st.RecvEnvelopes, st.SentFlushes, st.SentEnvelopes)
	}
	if maxFrame.Load() < 2 {
		t.Errorf("no multi-envelope frame dispatched (max %d)", maxFrame.Load())
	}
}

// TestCombiningExactlyOnceInOrder has eight goroutines send sequence-numbered
// envelopes through one endpoint to one peer, so their sends share frames:
// the receiver must see every envelope exactly once and each sender's in
// the order it sent them.
func TestCombiningExactlyOnceInOrder(t *testing.T) {
	const senders, each = 8, 5000
	n := New(nil)
	var mu sync.Mutex
	next := make([]uint64, senders)
	var bad atomic.Int64
	recv := func(env *wire.Envelope) {
		s, seq := env.Corr>>32, env.Corr&(1<<32-1)
		mu.Lock()
		if s >= senders || seq != next[s] {
			bad.Add(1)
		} else {
			next[s]++
		}
		mu.Unlock()
	}
	b, err := n.AttachBatch("b", recv, func(batch []*wire.Envelope) {
		for _, env := range batch {
			recv(env)
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

	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := uint64(0); s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(0); seq < each; seq++ {
				env := &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Corr: s<<32 | seq, Body: &wire.PingReq{}}
				if err := a.Send(context.Background(), env); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return n.NetStats().RecvEnvelopes >= senders*each }, "not every envelope arrived")
	time.Sleep(10 * time.Millisecond) // let a duplicate, if any, arrive too
	st := n.NetStats()
	if st.RecvEnvelopes != senders*each || st.SentEnvelopes != senders*each {
		t.Errorf("sent %d and received %d envelopes, want %d", st.SentEnvelopes, st.RecvEnvelopes, senders*each)
	}
	if bad.Load() != 0 {
		t.Errorf("%d envelopes arrived out of order, twice or from nowhere", bad.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	for s, got := range next {
		if got != each {
			t.Errorf("sender %d: %d of %d envelopes arrived in order", s, got, each)
		}
	}
	t.Logf("%d envelopes in %d frames", st.SentEnvelopes, st.SentFlushes)
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
// the sender and verifies the redial-once path re-delivers without the
// caller seeing an error. (The frame being re-sent may duplicate envelopes
// already written; the wire contract is at-most-once per send attempt with
// retry above, so duplicates are tolerated and only delivery is asserted.)
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

// TestSlowReaderBackpressure floods a receiver whose handler never returns.
// Once the socket buffers fill, a write cannot make progress: every Send
// under a 100 ms ctx must come back within 1 s, and the flood must end in
// an error rather than an unbounded buffer. Senders without a deadline
// block instead, and closing the endpoint must release every one of them.
func TestSlowReaderBackpressure(t *testing.T) {
	n := New(nil)
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

	// Large payloads fill the kernel socket buffers fast.
	payload := make([]byte, 256<<10)
	send := func(ctx context.Context) error {
		return a.Send(ctx, &wire.Envelope{From: "a", To: "b", Kind: wire.KindPing, Payload: payload})
	}
	flood := func() error {
		for i := 0; i < 1000; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			start := time.Now()
			err := send(ctx)
			cancel()
			if took := time.Since(start); took > time.Second {
				return fmt.Errorf("send %d took %v under a 100ms ctx", i, took)
			}
			if err != nil {
				return nil
			}
		}
		return errors.New("flooding a blocked reader never failed a send")
	}
	const flooders = 4
	errCh := make(chan error, flooders)
	for i := 0; i < flooders; i++ {
		go func() { errCh <- flood() }()
	}
	for i := 0; i < flooders; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Senders with no deadline wait on the full socket until Close.
	const blocked = 4
	var sent atomic.Int64
	for i := 0; i < blocked; i++ {
		go func() {
			for {
				if err := send(context.Background()); err != nil {
					errCh <- err
					return
				}
				sent.Add(1)
			}
		}()
	}
	waitFor(t, func() bool {
		before := sent.Load()
		time.Sleep(50 * time.Millisecond)
		return sent.Load() == before
	}, "senders without a deadline never blocked")
	a.Close()
	for i := 0; i < blocked; i++ {
		select {
		case <-errCh:
		case <-time.After(2 * time.Second):
			t.Fatal("Close left a sender blocked")
		}
	}
}

// TestCallsSurviveKilledConnections runs concurrent calls while the server's
// sockets are closed under them every few milliseconds, cutting frames in
// half on both directions. Every call must come back with its own reply or
// an error by its deadline; none may hang or see another call's reply.
func TestCallsSurviveKilledConnections(t *testing.T) {
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
	client, err := wire.NewPeer(n, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stop := make(chan struct{})
	killed := make(chan int)
	go func() {
		n.mu.Lock()
		ep := n.nodes["server"]
		n.mu.Unlock()
		kills := 0
		defer func() { killed <- kills }()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			ep.mu.Lock()
			for c := range ep.live {
				c.conn.Close()
				kills++
			}
			ep.mu.Unlock()
		}
	}()

	const callers, budget = 16, 200 * time.Millisecond
	var ok, failed atomic.Int64
	errCh := make(chan error, callers)
	end := time.Now().Add(time.Second)
	for g := 0; g < callers; g++ {
		go func(g uint64) {
			for i := uint64(0); time.Now().Before(end); i++ {
				seq := g<<32 | i
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				start := time.Now()
				var resp wire.CopyBatchResp
				err := client.Call(ctx, "server", wire.KindCopyBatch, &wire.CopyBatchReq{Tx: model.TxID{Seq: seq}}, &resp)
				cancel()
				if took := time.Since(start); took > budget+500*time.Millisecond {
					errCh <- fmt.Errorf("call took %v under a %v ctx", took, budget)
					return
				}
				if err != nil {
					failed.Add(1)
					continue
				}
				if resp.Clock != seq {
					errCh <- fmt.Errorf("call %x got the reply to %x", seq, resp.Clock)
					return
				}
				ok.Add(1)
			}
			errCh <- nil
		}(uint64(g))
	}
	for g := 0; g < callers; g++ {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	kills := <-killed
	if ok.Load() == 0 {
		t.Error("no call succeeded")
	}
	t.Logf("%d calls answered, %d failed, %d sockets closed", ok.Load(), failed.Load(), kills)
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
