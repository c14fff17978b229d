package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/wlg"
)

func newInstance(t *testing.T, opts Options) *Instance {
	t.Helper()
	if opts.Timeouts == (schema.Timeouts{}) {
		opts.Timeouts = schema.Timeouts{
			Op: time.Second, Vote: time.Second, Ack: 500 * time.Millisecond,
			Lock: 300 * time.Millisecond, OrphanResolve: 50 * time.Millisecond,
		}
	}
	in, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.Close)
	return in
}

func TestDefaultsAndSubmit(t *testing.T) {
	in := newInstance(t, Options{})
	ids := in.SiteIDs()
	if len(ids) != 3 || ids[0] != "S1" {
		t.Errorf("sites = %v", ids)
	}
	out := in.Submit(context.Background(), "S1", []model.Op{model.Write("x", 7), model.Read("x")})
	if !out.Committed || out.Reads["x"] != 7 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestSubmitUnknownHome(t *testing.T) {
	in := newInstance(t, Options{})
	out := in.Submit(context.Background(), "nope", nil)
	if out.Committed || out.Cause != model.AbortClient {
		t.Errorf("outcome = %+v", out)
	}
}

func TestSubmitManual(t *testing.T) {
	in := newInstance(t, Options{})
	out, err := in.SubmitManual(context.Background(), "S2", []wlg.Manual{
		{Kind: "w", Item: "y", Value: 42},
		{Kind: "r", Item: "y"},
	})
	if err != nil || !out.Committed || out.Reads["y"] != 42 {
		t.Errorf("outcome = %+v, err = %v", out, err)
	}
	if _, err := in.SubmitManual(context.Background(), "S2", []wlg.Manual{{Kind: "z"}}); err == nil {
		t.Error("invalid manual spec accepted")
	}
}

func TestRunWorkloadFillsDefaults(t *testing.T) {
	in := newInstance(t, Options{})
	res := in.RunWorkload(context.Background(), wlg.Profile{Transactions: 30, MPL: 3, Retries: 3})
	if res.Submitted != 30 {
		t.Errorf("submitted = %d", res.Submitted)
	}
	if res.Committed == 0 {
		t.Error("nothing committed")
	}
}

func TestReportAndRender(t *testing.T) {
	in := newInstance(t, Options{})
	in.RunWorkload(context.Background(), wlg.Profile{Transactions: 20, MPL: 2, Retries: 2})
	rep := in.Report()
	tot := rep.Totals()
	if tot.Began == 0 || tot.Committed == 0 {
		t.Errorf("totals = %+v", tot)
	}
	if rep.Net.Delivered == 0 {
		t.Error("no network traffic recorded")
	}
	text := rep.Render()
	if !strings.Contains(text, "commit rate:") {
		t.Error("render missing stats")
	}
}

func TestResetStats(t *testing.T) {
	in := newInstance(t, Options{})
	in.RunWorkload(context.Background(), wlg.Profile{Transactions: 10})
	// A committed writer's phase 2 runs after its reply and may still be in
	// flight when the workload returns: drain it first, or a late delivery
	// lands in the fresh window.
	settle(t, in)
	in.ResetStats()
	rep := in.Report()
	if rep.Totals().Began != 0 || rep.Net.Delivered != 0 {
		t.Errorf("reset failed: %+v", rep.Totals())
	}
}

// settle waits until every site's commit tails have finished and the
// fire-and-forget EndTx casts they sent have landed.
func settle(t *testing.T, in *Instance) {
	t.Helper()
	in.waitTails()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := in.Net.Stats(); st.Sent == st.Delivered+st.Dropped {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("network never went quiet: %+v", in.Net.Stats())
		}
	}
}

func TestWorkloadHistorySerializable(t *testing.T) {
	in := newInstance(t, Options{})
	res := in.RunWorkload(context.Background(), wlg.Profile{
		Transactions: 40, MPL: 4, ReadFraction: 0.5, Retries: 3, HotItems: 2,
	})
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if err := in.CheckSerializable(CommittedSet(res.Outcomes)); err != nil {
		t.Error(err)
	}
}

func TestCustomCatalogPartialReplication(t *testing.T) {
	cat := schema.NewCatalog()
	for _, id := range []model.SiteID{"A", "B", "C", "D"} {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.PlaceCopies("x", 100, "A", "B", "C") // not on D
	cat.PlaceCopies("y", 200, "D")           // only on D
	cat.Timeouts = schema.Timeouts{Lock: 300 * time.Millisecond, OrphanResolve: 50 * time.Millisecond}
	in := newInstance(t, Options{Catalog: cat})

	// A transaction homed at D reads x (remote copies) and y (local only).
	out := in.Submit(context.Background(), "D", []model.Op{model.Read("x"), model.Read("y")})
	if !out.Committed || out.Reads["x"] != 100 || out.Reads["y"] != 200 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestInvalidCatalogRejected(t *testing.T) {
	cat := schema.NewCatalog()
	cat.Protocols.CCP = "nope"
	if _, err := New(Options{Catalog: cat}); err == nil {
		t.Error("invalid catalog accepted")
	}
}

func TestCrashRecoverThroughInjector(t *testing.T) {
	in := newInstance(t, Options{})
	if out := in.Submit(context.Background(), "S1", []model.Op{model.Write("x", 5)}); !out.Committed {
		t.Fatalf("setup failed: %+v", out)
	}
	if err := in.Injector.Crash("S2"); err != nil {
		t.Fatal(err)
	}
	// QC keeps committing with 2 of 3 sites.
	if out := in.Submit(context.Background(), "S1", []model.Op{model.Write("x", 6)}); !out.Committed {
		t.Errorf("write with minority down failed: %+v", out)
	}
	if err := in.Injector.Recover("S2"); err != nil {
		t.Fatal(err)
	}
	// The recovered site serves again.
	if out := in.Submit(context.Background(), "S2", []model.Op{model.Read("x")}); !out.Committed || out.Reads["x"] != 6 {
		t.Errorf("read after recovery = %+v", out)
	}
}

func TestPing(t *testing.T) {
	in := newInstance(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := in.Ping(ctx, "S1"); err != nil {
		t.Errorf("ping live site: %v", err)
	}
	in.Injector.Crash("S3")
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if err := in.Ping(ctx2, "S3"); err == nil {
		t.Error("ping of crashed site succeeded")
	}
}

func TestOrphansDrainAfterCoordinatorRecovery2PC(t *testing.T) {
	in := newInstance(t, Options{Protocols: schema.Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"}})

	// Run transactions while crashing the coordinator site mid-flight to
	// strand participants in-doubt, then recover and watch orphans drain.
	done := make(chan model.Outcome, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			done <- in.Submit(context.Background(), "S1", []model.Op{model.Write("x", int64(i))})
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	in.Injector.Crash("S1")
	for i := 0; i < 8; i++ {
		<-done
	}
	in.Injector.Recover("S1")
	if !in.WaitOrphansDrained(5 * time.Second) {
		t.Errorf("orphans did not drain after coordinator recovery: %d left", in.Orphans())
	}
}

func TestCommittedSet(t *testing.T) {
	outcomes := []model.Outcome{
		{Tx: model.TxID{Site: "A", Seq: 1}, Committed: true},
		{Tx: model.TxID{Site: "A", Seq: 2}, Committed: false},
	}
	m := CommittedSet(outcomes)
	if len(m) != 1 || !m[model.TxID{Site: "A", Seq: 1}] {
		t.Errorf("set = %v", m)
	}
}
