package wire_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

func newPair(t *testing.T, serve wire.ServeFunc) (*wire.Peer, *wire.Peer) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	server, err := wire.NewPeer(net, "server", serve)
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.NewPeer(net, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

func TestCallRoundTrip(t *testing.T) {
	_, client := newPair(t, func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay []byte) (wire.MsgKind, wire.Body, error) {
		var req wire.CopyBatchReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: 99, Incarnation: req.Tx.Seq}, nil
	})

	var resp wire.CopyBatchResp
	err := client.Call(context.Background(), "server", wire.KindCopyBatch,
		&wire.CopyBatchReq{Tx: model.TxID{Site: "c", Seq: 5}}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Clock != 99 || resp.Incarnation != 5 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestCallPropagatesAbortCause(t *testing.T) {
	_, client := newPair(t, func(model.SiteID, trace.ID, wire.MsgKind, []byte) (wire.MsgKind, wire.Body, error) {
		return 0, nil, model.Abortf(model.AbortCC, "timestamp too old")
	})
	err := client.Call(context.Background(), "server", wire.KindCopyBatch, &wire.CopyBatchReq{}, nil)
	if model.CauseOf(err) != model.AbortCC {
		t.Errorf("cause = %v, err = %v", model.CauseOf(err), err)
	}
}

func TestCallGenericErrorNotAbort(t *testing.T) {
	_, client := newPair(t, func(model.SiteID, trace.ID, wire.MsgKind, []byte) (wire.MsgKind, wire.Body, error) {
		return 0, nil, errors.New("disk on fire")
	})
	err := client.Call(context.Background(), "server", wire.KindPing, &wire.PingReq{}, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if c := model.CauseOf(err); c != model.AbortClient {
		t.Errorf("generic remote error should surface as client-level, got %v", c)
	}
}

func TestCallTimeout(t *testing.T) {
	net := simnet.New(simnet.Config{})
	// A server that is attached but paused never replies.
	if _, err := wire.NewPeer(net, "server", func(model.SiteID, trace.ID, wire.MsgKind, []byte) (wire.MsgKind, wire.Body, error) {
		return wire.KindOK, &wire.OKBody{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	client, err := wire.NewPeer(net, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Pause("server")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := client.Call(ctx, "server", wire.KindPing, &wire.PingReq{}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestCallToUnknownDestinationTimesOut(t *testing.T) {
	net := simnet.New(simnet.Config{})
	client, err := wire.NewPeer(net, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := client.Call(ctx, "ghost", wire.KindPing, &wire.PingReq{}, nil); err == nil {
		t.Error("call to unknown destination should fail")
	}
}

func TestCast(t *testing.T) {
	var got atomic.Int64
	_, client := newPair(t, func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay []byte) (wire.MsgKind, wire.Body, error) {
		var d wire.DecisionMsg
		if err := d.DecodeFrom(pay); err == nil && d.Commit {
			got.Add(1)
		}
		return wire.KindOK, &wire.OKBody{}, nil
	})
	if err := client.Cast(context.Background(), "server", wire.KindDecision, &wire.DecisionMsg{Commit: true}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 1 {
		t.Error("cast not delivered")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, client := newPair(t, func(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay []byte) (wire.MsgKind, wire.Body, error) {
		var req wire.CopyBatchReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: req.Tx.Seq}, nil
	})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp wire.CopyBatchResp
			err := client.Call(context.Background(), "server", wire.KindCopyBatch,
				&wire.CopyBatchReq{Tx: model.TxID{Site: "c", Seq: uint64(i)}}, &resp)
			if err == nil && resp.Clock != uint64(i) {
				err = fmt.Errorf("cross-wired reply: got %d want %d", resp.Clock, i)
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

func TestClosedPeerFailsCalls(t *testing.T) {
	_, client := newPair(t, func(model.SiteID, trace.ID, wire.MsgKind, []byte) (wire.MsgKind, wire.Body, error) {
		return wire.KindOK, &wire.OKBody{}, nil
	})
	client.Close()
	if err := client.Call(context.Background(), "server", wire.KindPing, &wire.PingReq{}, nil); err == nil {
		t.Error("call on closed peer should fail")
	}
}

func TestServerlessPeerRepliesError(t *testing.T) {
	net := simnet.New(simnet.Config{})
	if _, err := wire.NewPeer(net, "mute", nil); err != nil {
		t.Fatal(err)
	}
	client, err := wire.NewPeer(net, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := client.Call(ctx, "mute", wire.KindPing, &wire.PingReq{}, nil); err == nil {
		t.Error("peer with nil ServeFunc should return an error reply")
	}
}
