package tcpnet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSendReceive(t *testing.T) {
	n := New(nil)
	var got atomic.Int32
	b, err := n.Attach("b", func(env *wire.Envelope) {
		if env.From == "a" && string(env.Payload) == "ping" {
			got.Add(1)
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

	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b", Payload: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 }, "message not delivered over TCP")
}

func TestDynamicAddressResolved(t *testing.T) {
	n := New(map[model.SiteID]string{"x": "127.0.0.1:0"})
	ep, err := n.Attach("x", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addr, ok := n.Addr("x")
	if !ok || addr == "127.0.0.1:0" {
		t.Errorf("listen address not resolved: %q", addr)
	}
}

func TestRPCOverTCP(t *testing.T) {
	n := New(nil)
	server, err := wire.NewPeer(n, "server", func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay []byte) (wire.MsgKind, wire.Body, error) {
		var req wire.CopyBatchReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: 7, Incarnation: 3}, nil
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

	var resp wire.CopyBatchResp
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := client.Call(ctx, "server", wire.KindCopyBatch, &wire.CopyBatchReq{Ops: []model.Op{model.Read("x")}}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Clock != 7 || resp.Incarnation != 3 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestConcurrentRPCOverTCP(t *testing.T) {
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

	const calls = 32
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			var resp wire.CopyBatchResp
			err := client.Call(ctx, "server", wire.KindCopyBatch, &wire.CopyBatchReq{Tx: model.TxID{Seq: uint64(i)}}, &resp)
			if err == nil && resp.Clock != uint64(i) {
				err = context.DeadlineExceeded
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestSendToUnknownAddressFails(t *testing.T) {
	n := New(nil)
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "nowhere"}); err == nil {
		t.Error("send to unknown address should fail")
	}
}

func TestDuplicateAttachFails(t *testing.T) {
	n := New(nil)
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := n.Attach("a", func(*wire.Envelope) {}); err == nil {
		t.Error("duplicate attach should fail")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n := New(nil)
	b, err := n.Attach("b", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := n.Attach("a", func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"}); err == nil {
		t.Error("send after close should fail")
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	n := New(map[model.SiteID]string{})
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

	if err := a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 }, "first message not delivered")

	// Restart b on the same address.
	b.Close()
	n.SetAddr("b", addr)
	b2, err := n.Attach("b", func(*wire.Envelope) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// The cached connection is stale; Send must retry with a fresh dial.
	waitFor(t, func() bool {
		a.Send(context.Background(), &wire.Envelope{From: "a", To: "b"})
		return got.Load() >= 2
	}, "message not delivered after peer restart")
}
