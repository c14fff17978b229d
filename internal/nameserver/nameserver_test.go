package nameserver

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/wire"
)

func setup(t *testing.T) (*Server, *wire.Peer) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	srv, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.NewPeer(net, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); client.Close() })
	return srv, client
}

func ctx(t *testing.T) context.Context {
	c, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestFetchEmptyCatalog(t *testing.T) {
	_, client := setup(t)
	cat, err := Fetch(ctx(t), client)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Sites) != 0 || cat.Protocols.RCP != "qc" {
		t.Errorf("catalog = %+v", cat)
	}
}

func TestRegisterSite(t *testing.T) {
	srv, client := setup(t)
	if err := Register(ctx(t), client, "S1", "10.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if err := Register(ctx(t), client, "S2", "10.0.0.2:9001"); err != nil {
		t.Fatal(err)
	}
	cat := srv.Catalog()
	if len(cat.Sites) != 2 || cat.Sites["S1"].Addr != "10.0.0.1:9001" {
		t.Errorf("sites = %+v", cat.Sites)
	}
	if cat.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", cat.Epoch)
	}
}

func TestPushAndFetchRoundTrip(t *testing.T) {
	_, client := setup(t)
	c := schema.NewCatalog()
	c.Sites["S1"] = schema.SiteInfo{ID: "S1"}
	c.Sites["S2"] = schema.SiteInfo{ID: "S2"}
	c.Sites["S3"] = schema.SiteInfo{ID: "S3"}
	c.ReplicateEverywhere("x", 42)
	c.Protocols = schema.Protocols{RCP: "rowa", CCP: "tso", ACP: "3pc"}

	if err := Push(ctx(t), client, c); err != nil {
		t.Fatal(err)
	}
	got, err := Fetch(ctx(t), client)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sites) != 3 || got.Items["x"].Initial != 42 ||
		got.Protocols.RCP != "rowa" || got.Protocols.CCP != "tso" || got.Protocols.ACP != "3pc" {
		t.Errorf("fetched = %+v", got)
	}
	if got.Epoch == 0 {
		t.Error("push should bump epoch")
	}
}

func TestPushInvalidCatalogRejected(t *testing.T) {
	srv, client := setup(t)
	c := schema.NewCatalog()
	c.Protocols.RCP = "bogus"
	if err := Push(ctx(t), client, c); err == nil {
		t.Error("invalid catalog accepted")
	}
	if srv.Catalog().Protocols.RCP != "qc" {
		t.Error("invalid catalog installed")
	}
}

func TestSetCatalogValidatesQuorums(t *testing.T) {
	srv, _ := setup(t)
	c := schema.NewCatalog()
	c.Sites["S1"] = schema.SiteInfo{ID: "S1"}
	c.Items["x"] = schema.ItemMeta{Item: "x", Votes: map[model.SiteID]int{"S1": 1}, ReadQuorum: 2, WriteQuorum: 2}
	if err := srv.SetCatalog(c); err == nil {
		t.Error("unreachable quorum accepted")
	}
}

func TestPing(t *testing.T) {
	_, client := setup(t)
	if err := client.Call(ctx(t), model.NameServerID, wire.KindPing, &wire.PingReq{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownKindRejected(t *testing.T) {
	_, client := setup(t)
	err := client.Call(ctx(t), model.NameServerID, wire.KindPrepare, &wire.PrepareReq{}, nil)
	if err == nil {
		t.Error("name server accepted a Prepare message")
	}
}

func TestCatalogIsolation(t *testing.T) {
	srv, client := setup(t)
	Register(ctx(t), client, "S1", "addr")
	cat := srv.Catalog()
	cat.Sites["EVIL"] = schema.SiteInfo{ID: "EVIL"}
	if _, ok := srv.Catalog().Sites["EVIL"]; ok {
		t.Error("Catalog() exposes internal state")
	}
}

func TestInitialCatalogCloned(t *testing.T) {
	net := simnet.New(simnet.Config{})
	initial := schema.NewCatalog()
	initial.Sites["S1"] = schema.SiteInfo{ID: "S1"}
	srv, err := New(net, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	initial.Sites["S2"] = schema.SiteInfo{ID: "S2"}
	if len(srv.Catalog().Sites) != 1 {
		t.Error("server shares the caller's catalog")
	}
}

func TestFetchEpochProbe(t *testing.T) {
	srv, client := setup(t)
	e, err := FetchEpoch(ctx(t), client)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("fresh epoch = %d, want 0", e)
	}
	if err := Register(ctx(t), client, "S1", "10.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if e, err = FetchEpoch(ctx(t), client); err != nil || e != 1 {
		t.Errorf("epoch after register = %d (%v), want 1", e, err)
	}
	if srv.Epoch() != 1 {
		t.Errorf("server epoch = %d", srv.Epoch())
	}
}

func TestSetCatalogStaleEpochRejected(t *testing.T) {
	srv, client := setup(t)
	if err := Register(ctx(t), client, "S1", "a:1"); err != nil {
		t.Fatal(err)
	}
	if err := Register(ctx(t), client, "S2", "a:2"); err != nil {
		t.Fatal(err)
	}
	// Unconditional (epoch 0) update applies and stamps epoch 3.
	c := srv.Catalog()
	c.Epoch = 0
	c.ReplicateEverywhere("x", 1)
	if err := srv.SetCatalog(c); err != nil {
		t.Fatal(err)
	}
	if srv.Epoch() != 3 {
		t.Fatalf("epoch after update = %d, want 3", srv.Epoch())
	}
	// A CAS with the epoch the first admin saw (2) is now stale.
	stale := srv.Catalog()
	stale.Epoch = 2
	if err := srv.SetCatalog(stale); err == nil {
		t.Fatal("stale CAS accepted")
	}
	// A CAS with the current epoch applies.
	fresh := srv.Catalog() // Epoch 3
	fresh.ReplicateEverywhere("y", 2)
	if err := srv.SetCatalog(fresh); err != nil {
		t.Fatal(err)
	}
	if srv.Epoch() != 4 {
		t.Errorf("epoch after CAS update = %d, want 4", srv.Epoch())
	}
}

// TestCatalogBodiesJSONRoundTrip: the three catalog bodies survive their
// JSON encoding with every field of the catalog filled.
func TestCatalogBodiesJSONRoundTrip(t *testing.T) {
	for _, src := range []wire.Body{&CatalogResp{}, &SetCatalogReq{}, &CatalogPushMsg{}} {
		testutil.Fill(t, src)
		got := reflect.New(reflect.TypeOf(src).Elem()).Interface().(wire.Body)
		if err := got.DecodeFrom(src.AppendTo(nil)); err != nil {
			t.Fatalf("%T: decode: %v", src, err)
		}
		if !reflect.DeepEqual(got, src) {
			t.Errorf("%T: round trip mismatch:\n src: %+v\n got: %+v", src, src, got)
		}
	}
}
