package site

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nameserver"
	"repro/internal/schema"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/wlg"
)

// TestTCPDeployment exercises the real multi-process deployment path in one
// process: name server and three sites over TCP with file-backed WALs, site
// registration, a remote workload through the SubmitTx RPC (the WLGlet
// path), and a file-WAL restart.
func TestTCPDeployment(t *testing.T) {
	net := tcpnet.New(nil)

	cat := schema.NewCatalog()
	ids := []model.SiteID{"A", "B", "C"}
	for _, id := range ids {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.ReplicateEverywhere("x", 10)
	cat.ReplicateEverywhere("y", 20)
	cat.Timeouts = schema.Timeouts{
		Op: 2 * time.Second, Vote: 2 * time.Second, Ack: time.Second,
		Lock: time.Second, OrphanResolve: 100 * time.Millisecond,
	}
	ns, err := nameserver.New(net, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	dir := t.TempDir()
	sites := make(map[model.SiteID]*Site)
	logs := make(map[model.SiteID]string)
	for _, id := range ids {
		logs[id] = filepath.Join(dir, string(id))
		l, err := wal.OpenSegmented(logs[id], wal.SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(Config{ID: id, Net: net, Log: l, Register: true})
		if err != nil {
			t.Fatal(err)
		}
		sites[id] = st
	}
	defer func() {
		for _, st := range sites {
			st.Close()
		}
	}()

	// Registration reached the name server over TCP.
	if got := len(ns.Catalog().Sites); got != 3 {
		t.Fatalf("registered sites = %d", got)
	}

	// Run a remote workload through the SubmitTx RPC.
	client, err := wire.NewPeer(net, "wlg-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gen := wlg.New(wlg.Profile{
		Sites: ids, Items: []model.ItemID{"x", "y"},
		Transactions: 20, MPL: 2, OpsPerTx: 2, ReadFraction: 0.5, Retries: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res := gen.Run(ctx, wlg.RemoteSubmitter{Peer: client})
	if res.Submitted != 20 {
		t.Fatalf("submitted = %d", res.Submitted)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed over TCP: %+v", res.ByCause)
	}

	// Write a marker value and restart site A from its on-disk WAL.
	out := wlg.RemoteSubmitter{Peer: client}.Submit(ctx, "A", []model.Op{model.Write("x", 777)})
	if !out.Committed {
		t.Fatalf("marker write failed: %+v", out)
	}
	addr, _ := net.Addr("A")
	sites["A"].Close()
	net.SetAddr("A", addr)
	l, err := wal.OpenSegmented(logs["A"], wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := New(Config{ID: "A", Net: net, Log: l})
	if err != nil {
		t.Fatal(err)
	}
	sites["A"] = st2

	read := st2.Execute(ctx, []model.Op{model.Read("x")})
	if !read.Committed || read.Reads["x"] != 777 {
		t.Errorf("read after file-WAL restart = %+v, want x=777", read)
	}
}
