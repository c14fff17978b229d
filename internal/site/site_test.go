package site

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/nameserver"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/wal"
	"repro/internal/wire"
)

// cluster spins up a name server and n sites over a simulated network with
// every item replicated everywhere.
type cluster struct {
	net   *simnet.Net
	ns    *nameserver.Server
	sites map[model.SiteID]*Site
	ids   []model.SiteID
}

func newCluster(t *testing.T, n int, protocols schema.Protocols, items map[model.ItemID]int64) *cluster {
	t.Helper()
	return newClusterCat(t, n, func(cat *schema.Catalog) {
		for item, initial := range items {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Protocols = protocols
	})
}

// newClusterCat is the general form: n sites named A, B, …, the test-sized
// default timeouts, and whatever the caller makes of the catalog (item
// placement, protocols, other timeouts) before the sites start.
func newClusterCat(t *testing.T, n int, customize func(*schema.Catalog)) *cluster {
	t.Helper()
	net := simnet.New(simnet.Config{})
	cat := schema.NewCatalog()
	var ids []model.SiteID
	for i := 0; i < n; i++ {
		id := model.SiteID(string(rune('A' + i)))
		ids = append(ids, id)
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.Protocols = defaultProtocols()
	cat.Timeouts = schema.Timeouts{
		Op: time.Second, Vote: time.Second, Ack: 500 * time.Millisecond,
		Lock: 500 * time.Millisecond, OrphanResolve: 50 * time.Millisecond,
	}
	customize(cat)
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	ns, err := nameserver.New(net, cat)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{net: net, ns: ns, sites: make(map[model.SiteID]*Site), ids: ids}
	for _, id := range ids {
		st, err := New(Config{ID: id, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		c.sites[id] = st
	}
	t.Cleanup(func() {
		c.waitTails()
		for _, st := range c.sites {
			st.Close()
		}
		ns.Close()
	})
	return c
}

// waitTails blocks until no site has a commit tail in flight: every
// decision already replied to has reached its cohort (or given up).
func (c *cluster) waitTails() {
	for _, st := range c.sites {
		st.WaitTails()
	}
}

func defaultProtocols() schema.Protocols {
	return schema.Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"}
}

func items() map[model.ItemID]int64 {
	return map[model.ItemID]int64{"x": 10, "y": 20, "z": 30}
}

// preWrite buffers tx's write intent on item at m, as a copy wave admits
// it, waiting if it must while ctx lasts.
func preWrite(ctx context.Context, m cc.Manager, tx model.TxID, ts model.Timestamp, item model.ItemID, v int64) error {
	_, _, err := m.Admit(ctx, tx, ts, model.Write(item, v), true)
	return err
}

func TestExecuteReadOnly(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("x"), model.Read("y")})
	if !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Reads["x"] != 10 || out.Reads["y"] != 20 {
		t.Errorf("reads = %v", out.Reads)
	}
	if out.Tx.Site != "A" {
		t.Errorf("home site = %v", out.Tx.Site)
	}
}

func TestExecuteWriteVisibleEverywhereEventually(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 99)})
	if !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	// QC: a read from any other site must see the new value (its read
	// quorum intersects the write quorum and takes the max version).
	for _, id := range c.ids {
		got := c.sites[id].Execute(context.Background(), []model.Op{model.Read("x")})
		if !got.Committed || got.Reads["x"] != 99 {
			t.Errorf("site %s read %v (committed=%v)", id, got.Reads, got.Committed)
		}
	}
}

func TestExecuteReadModifyWrite(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	s := c.sites["B"]
	out := s.Execute(context.Background(), []model.Op{model.Read("x"), model.Write("x", 11)})
	if !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	got := s.Execute(context.Background(), []model.Op{model.Read("x")})
	if got.Reads["x"] != 11 {
		t.Errorf("read-after-rmw = %v", got.Reads)
	}
}

func TestExecuteUnknownItemAborts(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("ghost")})
	if out.Committed || out.Cause != model.AbortClient {
		t.Errorf("outcome = %+v", out)
	}
}

func TestExecuteEmptyTransactionCommits(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	out := c.sites["A"].Execute(context.Background(), nil)
	if !out.Committed {
		t.Errorf("outcome = %+v", out)
	}
}

func TestAllProtocolCombinationsExecute(t *testing.T) {
	for _, rcpName := range []string{"rowa", "qc"} {
		for _, ccpName := range []string{"2pl", "tso", "mvtso"} {
			for _, acpName := range []string{"2pc", "3pc"} {
				name := rcpName + "/" + ccpName + "/" + acpName
				t.Run(name, func(t *testing.T) {
					c := newCluster(t, 3, schema.Protocols{RCP: rcpName, CCP: ccpName, ACP: acpName}, items())
					s := c.sites["A"]
					w := s.Execute(context.Background(), []model.Op{model.Write("x", 5), model.Read("y")})
					if !w.Committed {
						t.Fatalf("write tx failed: %+v", w)
					}
					r := c.sites["C"].Execute(context.Background(), []model.Op{model.Read("x")})
					if !r.Committed || r.Reads["x"] != 5 {
						t.Fatalf("read tx = %+v", r)
					}
				})
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	s := c.sites["A"]
	for i := 0; i < 5; i++ {
		s.Execute(context.Background(), []model.Op{model.Write("x", int64(i))})
	}
	st := s.Stats()
	if st.Began != 5 || st.Committed != 5 || st.Aborted != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Latency.Count != 5 {
		t.Errorf("latency samples = %d", st.Latency.Count)
	}
	s.ResetStats()
	if got := s.Stats(); got.Began != 0 {
		t.Errorf("reset failed: %+v", got)
	}
}

func TestHistoryRecordedAndSerializable(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	committed := make(map[model.TxID]bool)
	for i := 0; i < 10; i++ {
		home := c.sites[c.ids[i%len(c.ids)]]
		out := home.Execute(context.Background(), []model.Op{
			model.Read("x"), model.Write("x", int64(i)), model.Write("y", int64(i)),
		})
		if out.Committed {
			committed[out.Tx] = true
		}
	}
	var recs []*history.Recorder
	for _, id := range c.ids {
		recs = append(recs, c.sites[id].HistoryRecorder())
	}
	if err := history.CheckSerializable(history.Merge(recs...), committed); err != nil {
		t.Error(err)
	}
	if len(committed) == 0 {
		t.Fatal("nothing committed")
	}
}

func TestCrashedSiteRejectsWork(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	s := c.sites["A"]
	c.net.Pause("A")
	s.Crash()
	out := s.Execute(context.Background(), []model.Op{model.Read("x")})
	if out.Committed {
		t.Error("crashed site committed a transaction")
	}
	if !s.Crashed() {
		t.Error("Crashed() = false")
	}
}

func TestCrashRecoveryPreservesCommittedData(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	a := c.sites["A"]
	if out := a.Execute(context.Background(), []model.Op{model.Write("x", 77)}); !out.Committed {
		t.Fatalf("setup write failed: %+v", out)
	}

	c.net.Pause("A")
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	c.net.Resume("A")

	out := a.Execute(context.Background(), []model.Op{model.Read("x")})
	if !out.Committed || out.Reads["x"] != 77 {
		t.Errorf("read after recovery = %+v", out)
	}
}

func TestRecoverNotCrashedFails(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	if err := c.sites["A"].Recover(); err == nil {
		t.Error("Recover on a live site should fail")
	}
}

func TestQuorumSurvivesMinorityCrash(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	c.net.Pause("C")
	c.sites["C"].Crash()

	// QC with majority quorums keeps working with 2 of 3 sites.
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 5), model.Read("x")})
	if !out.Committed {
		t.Fatalf("majority write failed: %+v", out)
	}
}

func TestROWAWriteFailsWithSiteDown(t *testing.T) {
	c := newCluster(t, 3, schema.Protocols{RCP: "rowa", CCP: "2pl", ACP: "2pc"}, items())
	c.net.Pause("C")
	c.sites["C"].Crash()

	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 5)})
	if out.Committed {
		t.Fatal("ROWA write committed with a copy site down")
	}
	if out.Cause != model.AbortRCP {
		t.Errorf("cause = %v, want rcp", out.Cause)
	}
	// Reads still work (read-one).
	r := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("x")})
	if !r.Committed {
		t.Errorf("ROWA read failed with one site down: %+v", r)
	}
}

func TestConflictingTransactionsSerialize(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	const n = 20
	results := make(chan model.Outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			home := c.sites[c.ids[i%len(c.ids)]]
			// Read-modify-write on a hotspot is an upgrade-deadlock storm
			// under 2PL; retry aborted attempts with jittered backoff as a
			// real workload would (immediate lockstep retries livelock).
			rng := rand.New(rand.NewSource(int64(i)))
			var out model.Outcome
			for attempt := 0; attempt < 16; attempt++ {
				out = home.Execute(context.Background(), []model.Op{
					model.Read("x"), model.Write("x", int64(i)),
				})
				if out.Committed {
					break
				}
				time.Sleep(time.Duration(rng.Intn(80*(attempt+1))) * time.Millisecond)
			}
			results <- out
		}(i)
	}
	committed := make(map[model.TxID]bool)
	for i := 0; i < n; i++ {
		if out := <-results; out.Committed {
			committed[out.Tx] = true
		}
	}
	if len(committed) == 0 {
		t.Fatal("all conflicting transactions aborted")
	}
	// History must stay serializable under contention.
	var recs []*history.Recorder
	for _, id := range c.ids {
		recs = append(recs, c.sites[id].HistoryRecorder())
	}
	if err := history.CheckSerializable(history.Merge(recs...), committed); err != nil {
		t.Error(err)
	}
	final := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("x")})
	if !final.Committed {
		t.Fatalf("final read failed: %+v", final)
	}
}

func TestExecuteViaSubmitTxRPC(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	// Submit through the wire as the WLG does.
	other := c.sites["B"]
	_ = other
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	out := c.sites["A"].Execute(ctx, []model.Op{model.Write("y", 1)})
	if !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestReadOnlyCommitWritesNothing: when every participant votes read-only
// there is no phase 2, so the home site logs neither a decision nor an end
// record and its decision table never sees the transaction — and a crash
// right after it recovers cleanly.
func TestReadOnlyCommitWritesNothing(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	a := c.sites["A"]
	log := a.log.(*wal.MemoryLog)
	before := log.Len()
	out := a.Execute(context.Background(), []model.Op{model.Read("x"), model.Read("y")})
	if !out.Committed || out.Reads["x"] != 10 || out.Reads["y"] != 20 {
		t.Fatalf("read-only tx = %+v", out)
	}
	if got := log.Len(); got != before {
		t.Errorf("read-only commit appended %d WAL records, want 0", got-before)
	}
	for _, id := range c.ids {
		if table := c.sites[id].DecisionTable(); len(table) != 0 {
			t.Errorf("decision table at %s = %v, want empty", id, table)
		}
	}

	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := a.InDoubtCount(); n != 0 {
		t.Errorf("%d in-doubt transactions after recovery, want 0", n)
	}
	if out := a.Execute(context.Background(), []model.Op{model.Read("x"), model.Write("y", 21)}); !out.Committed || out.Reads["x"] != 10 {
		t.Errorf("first transaction after recovery = %+v", out)
	}
}

// TestCrashRecoveryOnSegmentedLog: a site on the file WAL crashes and
// recovers in-process — Recover reopens the closed segment directory — and
// reads back what it committed before and accepts writes after.
func TestCrashRecoveryOnSegmentedLog(t *testing.T) {
	net := simnet.New(simnet.Config{})
	cat := schema.NewCatalog()
	cat.Sites["A"] = schema.SiteInfo{ID: "A"}
	cat.ReplicateEverywhere("x", 10)
	cat.Protocols = defaultProtocols()
	log, err := wal.OpenSegmented(t.TempDir(), wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{ID: "A", Net: net, Log: log, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx := context.Background()
	if out := a.Execute(ctx, []model.Op{model.Write("x", 42)}); !out.Committed {
		t.Fatalf("write = %+v", out)
	}
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if out := a.Execute(ctx, []model.Op{model.Read("x")}); !out.Committed || out.Reads["x"] != 42 {
		t.Fatalf("read after recovery = %+v, want x=42", out)
	}
	if out := a.Execute(ctx, []model.Op{model.Write("x", 43)}); !out.Committed {
		t.Fatalf("write after recovery = %+v", out)
	}
}

// TestMonitorBodiesJSONRoundTrip: the stats and history bodies survive
// their JSON encoding with every field filled (histograms, stage maps,
// abort causes, history events).
func TestMonitorBodiesJSONRoundTrip(t *testing.T) {
	for _, src := range []wire.Body{&StatsResp{}, &HistoryResp{}} {
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
