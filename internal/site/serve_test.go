package site

import (
	"context"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// TestBlockedWaveDoesNotStallConnection: a copy wave that waits on a lock
// holds up nothing but itself. Over loopback TCP, S2 holds a 2PL lock on x;
// a client sends S2 a blocking wave on x and then, on the same connection, a
// wave on y. The y reply arrives while the x wave still waits; once the
// holder releases, the x wave completes, and — both waves being final
// read-only legs that fold — S2 holds no CC state for either afterwards.
func TestBlockedWaveDoesNotStallConnection(t *testing.T) {
	net := tcpnet.New(nil)
	cat := schema.NewCatalog()
	cat.Sites["S2"] = schema.SiteInfo{ID: "S2"}
	cat.PlaceCopies("x", 10, "S2")
	cat.PlaceCopies("y", 20, "S2")
	cat.Protocols = defaultProtocols()
	cat.Timeouts = schema.Timeouts{
		Op: 5 * time.Second, Vote: 5 * time.Second, Ack: time.Second,
		Lock: 5 * time.Second, OrphanResolve: 100 * time.Millisecond,
	}
	s2, err := New(Config{ID: "S2", Net: net, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	client, err := wire.NewPeer(net, "S1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	holder := model.TxID{Site: "S2", Seq: 1}
	if err := preWrite(ctx, s2.ccm, holder, model.Timestamp{Time: 1, Site: "S2"}, "x", 1); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			s2.ccm.Abort(holder)
		}
	}()

	wave := func(seq uint64, item model.ItemID) *wire.CopyBatchReq {
		return &wire.CopyBatchReq{
			Tx: model.TxID{Site: "S1", Seq: seq}, TS: model.Timestamp{Time: seq, Site: "S1"},
			Ops: []model.Op{model.Read(item)}, Final: true,
		}
	}
	type reply struct {
		resp *wire.CopyBatchResp
		err  error
	}
	blocked := make(chan reply, 1)
	go func() {
		resp, err := wire.Call[wire.CopyBatchResp](ctx, client, "S2", wire.KindCopyBatch, wave(1, "x"))
		blocked <- reply{resp, err}
	}()
	for s2.Stats().CCWaits == 0 {
		if ctx.Err() != nil {
			t.Fatal("the x wave never queued behind the holder")
		}
		time.Sleep(time.Millisecond)
	}

	yctx, ycancel := context.WithTimeout(ctx, 2*time.Second)
	defer ycancel()
	resp, err := wire.Call[wire.CopyBatchResp](yctx, client, "S2", wire.KindCopyBatch, wave(2, "y"))
	if err != nil {
		t.Fatalf("the y wave got no reply while the x wave waited: %v", err)
	}
	if !resp.Released || len(resp.Results) != 1 || resp.Results[0].Value != 20 {
		t.Fatalf("y wave = %+v, want y=20 released", resp)
	}
	select {
	case r := <-blocked:
		t.Fatalf("the x wave finished while its lock was held: %+v, %v", r.resp, r.err)
	default:
	}

	s2.ccm.Abort(holder)
	released = true
	var r reply
	select {
	case r = <-blocked:
	case <-ctx.Done():
		t.Fatal("the x wave did not complete after the holder released")
	}
	if r.err != nil || !r.resp.Released || len(r.resp.Results) != 1 || r.resp.Results[0].Value != 10 {
		t.Fatalf("x wave = %+v, %v; want x=10 released", r.resp, r.err)
	}
	if h := holders(s2); len(h) != 0 {
		t.Errorf("holders after both waves = %v, want none", h)
	}
	if st := s2.Stats(); st.PipeSubmitted != 2 || st.PipeBatches != 2 || st.PipeSpills != 1 {
		t.Errorf("S2 served %d waves in %d batches, %d waited; want 2, 2 and 1", st.PipeSubmitted, st.PipeBatches, st.PipeSpills)
	}
}
