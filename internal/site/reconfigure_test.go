package site

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/wire"
)

// bump returns a copy of the site's current catalog with the epoch
// incremented, ready to mutate into the next version.
func bump(s *Site) *schema.Catalog {
	cat := s.Catalog().Clone()
	cat.Epoch++
	return cat
}

// TestReconfigureReshardsLive is the tentpole's acceptance scenario at site
// scope: a live epoch bump changes the shard count without a restart, with
// committed data readable before and after, and the site keeps committing.
func TestReconfigureReshardsLive(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	for v := int64(1); v <= 10; v++ {
		if out := a.Execute(ctx, []model.Op{model.Write("x", v), model.Write("y", v*2)}); !out.Committed {
			t.Fatalf("write did not commit: %+v", out)
		}
	}

	for _, shards := range []int{8, 2} {
		cat := bump(a)
		cat.Shards = shards
		if err := a.Reconfigure(cat); err != nil {
			t.Fatalf("reconfigure to %d shards: %v", shards, err)
		}
		if got := a.Store().ShardCount(); got != shards {
			t.Fatalf("shard count after reconfigure = %d, want %d", got, shards)
		}
		if got := a.Epoch(); got != cat.Epoch {
			t.Fatalf("epoch after reconfigure = %d, want %d", got, cat.Epoch)
		}
		out := a.Execute(ctx, []model.Op{model.Read("x"), model.Read("y")})
		if !out.Committed || out.Reads["x"] != 10 || out.Reads["y"] != 20 {
			t.Fatalf("post-reshard read = %+v, want x=10 y=20", out)
		}
		// The re-sharded site keeps committing new work.
		if out := a.Execute(ctx, []model.Op{model.Write("z", int64(shards))}); !out.Committed {
			t.Fatalf("post-reshard write did not commit: %+v", out)
		}
	}
	if got := a.Reconfigures(); got != 2 {
		t.Errorf("reconfigure count = %d, want 2", got)
	}
	if st := a.Stats(); st.Epoch != a.Epoch() || st.Reconfigures != 2 {
		t.Errorf("stats epoch/reconfigures = %d/%d", st.Epoch, st.Reconfigures)
	}
}

// TestReconfigureStaleEpochRejected: equal and older epochs must be refused
// without touching the stack.
func TestReconfigureStaleEpochRejected(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	before := a.Store()

	same := a.Catalog().Clone() // epoch unchanged
	if err := a.Reconfigure(same); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("same-epoch reconfigure error = %v, want ErrStaleEpoch", err)
	}
	if a.Store() != before {
		t.Error("stale reconfigure replaced the store")
	}
	if n := a.Reconfigures(); n != 0 {
		t.Errorf("reconfigure count = %d, want 0", n)
	}
}

// TestReconfigureImmaterialSkipsRebuild: an epoch bump that only touches
// site registrations (what RegisterSite does) adopts the metadata without
// rebuilding the store.
func TestReconfigureImmaterialSkipsRebuild(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	before := a.Store()

	cat := bump(a)
	info := cat.Sites["B"]
	info.Addr = "10.0.0.2:7001"
	cat.Sites["B"] = info
	if err := a.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != cat.Epoch {
		t.Errorf("epoch not adopted: %d", a.Epoch())
	}
	if a.Store() != before {
		t.Error("immaterial reconfigure rebuilt the store")
	}
}

// TestReconfigureAddsItem: a new item entering the replication schema at
// runtime becomes readable/writable everywhere after all sites adopt the
// epoch.
func TestReconfigureAddsItem(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	ctx := context.Background()

	cat := bump(c.sites["A"])
	cat.ReplicateEverywhere("w", 555)
	for _, id := range c.ids {
		if err := c.sites[id].Reconfigure(cat.Clone()); err != nil {
			t.Fatalf("site %s: %v", id, err)
		}
	}
	out := c.sites["B"].Execute(ctx, []model.Op{model.Read("w")})
	if !out.Committed || out.Reads["w"] != 555 {
		t.Fatalf("new-item read = %+v, want w=555", out)
	}
	if out := c.sites["C"].Execute(ctx, []model.Op{model.Write("w", 556)}); !out.Committed {
		t.Fatalf("new-item write = %+v", out)
	}
}

// TestReconfigureCarriesInDoubtAcross: a Prepared-but-undecided transaction
// held when the epoch bump lands must survive the rebuild — still counted
// in-doubt, its write set re-protected in the new CC manager, and still
// installable when the decision finally arrives (2PC termination).
func TestReconfigureCarriesInDoubtAcross(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	orphan := model.TxID{Site: "Z", Seq: 77}
	vote := a.part.HandlePrepare(wire.PrepareReq{
		Tx:           orphan,
		TS:           model.Timestamp{Time: 1, Site: "Z"},
		Coordinator:  "Z",
		Participants: []model.SiteID{"A", "Z"},
		Writes:       []model.WriteRecord{{Item: "z", Value: 777, Version: 100}},
	})
	if !vote.Yes {
		t.Fatalf("prepare rejected: %+v", vote)
	}

	cat := bump(a)
	cat.Shards = 4
	if err := a.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	if n := a.InDoubtCount(); n != 1 {
		t.Fatalf("in-doubt after reconfigure = %d, want 1", n)
	}
	// The in-doubt write set is re-protected in the NEW lock manager: a
	// conflicting write must not slip past it.
	wctx, cancel := context.WithTimeout(ctx, 700*time.Millisecond)
	if out := a.Execute(wctx, []model.Op{model.Write("z", 1)}); out.Committed {
		t.Fatal("conflicting write committed past an in-doubt transaction")
	}
	cancel()
	// Late decision installs into the post-reshard store.
	if err := a.part.HandleDecision(orphan, true); err != nil {
		t.Fatal(err)
	}
	if cp, ok := a.Store().Get("z"); !ok || cp.Value != 777 {
		t.Fatalf("late decision install = %+v, want 777", cp)
	}
	if n := a.InDoubtCount(); n != 0 {
		t.Errorf("in-doubt after decision = %d, want 0", n)
	}
}

// TestReconfigureUnderLoad re-shards a site while concurrent transactions
// run against the whole cluster; every transaction reported committed must
// have its effects durable afterwards (version-guarded redo through the
// forced snapshot must lose nothing).
func TestReconfigureUnderLoad(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	var wg sync.WaitGroup
	var mu sync.Mutex
	maxCommitted := make(map[model.ItemID]int64) // item -> highest committed value
	itemsList := []model.ItemID{"x", "y", "z"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			home := c.sites[c.ids[w%len(c.ids)]]
			item := itemsList[w%len(itemsList)]
			for v := int64(1); v <= 25; v++ {
				val := int64(w+1)*1000 + v
				out := home.Execute(ctx, []model.Op{model.Write(item, val)})
				if out.Committed {
					mu.Lock()
					if val > maxCommitted[item] {
						maxCommitted[item] = val
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	// Two epoch bumps mid-flight.
	for i, shards := range []int{8, 2} {
		time.Sleep(20 * time.Millisecond)
		cat := bump(a)
		cat.Shards = shards
		if err := a.Reconfigure(cat); err != nil {
			t.Fatalf("reconfigure %d: %v", i, err)
		}
	}
	wg.Wait()

	// Workers race each other per item, so the final value is the winner of
	// the last conflict — but it must be SOME value a committed transaction
	// wrote, and a read through the quorum must succeed at every site. A write
	// quorum need not include A, so every site's history is searched.
	committedVals := make(map[model.ItemID]map[int64]bool)
	for _, id := range c.ids {
		for _, e := range c.sites[id].HistoryRecorder().Events() {
			if e.Kind == model.OpWrite {
				if committedVals[e.Item] == nil {
					committedVals[e.Item] = map[int64]bool{}
				}
				committedVals[e.Item][e.Value] = true
			}
		}
	}
	var final model.Outcome
	for attempt := 0; attempt < 10; attempt++ {
		final = a.Execute(ctx, []model.Op{model.Read("x"), model.Read("y"), model.Read("z")})
		if final.Committed {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !final.Committed {
		t.Fatalf("final audit read aborted: %+v", final)
	}
	initial := items()
	for _, item := range itemsList {
		got := final.Reads[item]
		if got == initial[item] && maxCommitted[item] == 0 {
			continue // nothing committed on this item
		}
		if !committedVals[item][got] && got != initial[item] {
			t.Errorf("item %s = %d after reconfigure, not a committed value", item, got)
		}
	}
}

// TestReconfigureWhileCrashedFails: a crashed site refuses live
// reconfiguration (recovery owns the rebuild), then converges after
// recovery via an explicit call.
func TestReconfigureWhileCrashedFails(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	cat := bump(a)
	cat.Shards = 4
	a.Crash()
	if err := a.Reconfigure(cat); err == nil {
		t.Fatal("reconfigure on crashed site succeeded")
	}
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	if got := a.Store().ShardCount(); got != 4 {
		t.Fatalf("shard count after recover+reconfigure = %d, want 4", got)
	}
}

// TestReconfigureSurvivesCrashRecovery: state written after a reconfigure
// recovers from the forced-full snapshot plus the post-reconfigure records,
// under the new shard count.
func TestReconfigureSurvivesCrashRecovery(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	if out := a.Execute(ctx, []model.Op{model.Write("x", 41)}); !out.Committed {
		t.Fatalf("pre-reconfigure write: %+v", out)
	}
	cat := bump(a)
	cat.Shards = 8
	if err := a.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	if out := a.Execute(ctx, []model.Op{model.Write("x", 42)}); !out.Committed {
		t.Fatalf("post-reconfigure write: %+v", out)
	}
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := a.Store().ShardCount(); got != 8 {
		t.Fatalf("recovered shard count = %d, want 8 (catalog survives recovery)", got)
	}
	out := a.Execute(ctx, []model.Op{model.Read("x")})
	if !out.Committed || out.Reads["x"] != 42 {
		t.Fatalf("post-recovery read = %+v, want x=42", out)
	}
}

// TestReconfigureSerializesConcurrentBumps: many goroutines racing distinct
// epochs through Reconfigure must apply cleanly in some order — monotone
// epoch, exactly one winner per epoch, data intact.
func TestReconfigureSerializesConcurrentBumps(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	base := a.Catalog().Clone()

	var wg sync.WaitGroup
	applied := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cat := base.Clone()
			cat.Epoch = base.Epoch + uint64(i) + 1
			cat.Shards = 1 << (uint(i) % 4)
			applied[i] = a.Reconfigure(cat)
		}(i)
	}
	wg.Wait()
	// Every error must be a stale-epoch reject (a higher epoch won first);
	// the final epoch must be the max that succeeded.
	var maxOK uint64
	for i, err := range applied {
		epoch := base.Epoch + uint64(i) + 1
		if err == nil {
			if epoch > maxOK {
				maxOK = epoch
			}
		} else if !errors.Is(err, ErrStaleEpoch) {
			t.Errorf("epoch %d: unexpected error %v", epoch, err)
		}
	}
	if maxOK == 0 {
		t.Fatal("no reconfigure succeeded")
	}
	if got := a.Epoch(); got != maxOK {
		t.Errorf("final epoch = %d, want %d", got, maxOK)
	}
	out := a.Execute(context.Background(), []model.Op{model.Read("x")})
	if !out.Committed || out.Reads["x"] != 10 {
		t.Fatalf("read after concurrent bumps = %+v", out)
	}
}

// TestReconfigureValidatesCatalog: a catalog that fails validation is
// rejected before any quiesce work.
func TestReconfigureValidatesCatalog(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	cat := bump(a)
	cat.Protocols.CCP = "nope"
	if err := a.Reconfigure(cat); err == nil {
		t.Fatal("invalid catalog accepted")
	}
	if a.Epoch() != 0 {
		t.Errorf("epoch moved on invalid catalog: %d", a.Epoch())
	}
}

// TestReconfigureTimeoutsOnlyAdoptsInPlace: a material but rebuild-free
// change (timeouts) adopts without replacing the store or raising the
// epoch fence.
func TestReconfigureTimeoutsOnlyAdoptsInPlace(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	before := a.Store()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	preTx := model.TxID{Site: "B", Seq: 50}
	if err := preWrite(ctx, a.ccm, preTx, model.Timestamp{Time: 9, Site: "B"}, "x", 5); err != nil {
		t.Fatal(err)
	}

	cat := bump(a)
	cat.Timeouts.Op = 3 * time.Second
	if err := a.Reconfigure(cat); err != nil {
		t.Fatal(err)
	}
	if a.Store() != before {
		t.Error("timeouts-only reconfigure rebuilt the store")
	}
	if a.Epoch() != cat.Epoch {
		t.Errorf("epoch = %d, want %d", a.Epoch(), cat.Epoch)
	}
	// No fence raise: the pre-bump transaction's prepare (epoch 0) with
	// its intact intents still passes.
	v := a.votePrepare(wire.PrepareReq{
		Tx: preTx, Coordinator: "B", Participants: []model.SiteID{"A", "B"},
		Writes: []model.WriteRecord{{Item: "x", Value: 5, Version: 1}},
	})
	if !v.Yes {
		t.Fatalf("pre-bump prepare after timeouts-only change = %+v, want yes", v)
	}
}
