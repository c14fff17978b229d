package site

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rcp"
	"repro/internal/schema"
)

var waveItems = map[model.ItemID]int64{"w": 1, "x": 10, "y": 20, "z": 30}

// randomProgram draws a one-shot program of 1–6 operations over four items:
// repeated reads, writes and adds, read→write and write→read of one item.
// Most programs keep each item either blind-added or read/written; one in
// eight mixes freely and so may be one the API rejects.
func randomProgram(rng *rand.Rand) []model.Op {
	ids := []model.ItemID{"w", "x", "y", "z"}
	free := rng.Intn(8) == 0
	addOnly := make(map[model.ItemID]bool)
	for _, id := range ids {
		addOnly[id] = rng.Intn(3) == 0
	}
	ops := make([]model.Op, 1+rng.Intn(6))
	for i := range ops {
		item := ids[rng.Intn(len(ids))]
		v := int64(rng.Intn(200) - 100)
		switch {
		case free && rng.Intn(3) == 0, !free && addOnly[item]:
			ops[i] = model.Add(item, v)
		case rng.Intn(2) == 0:
			ops[i] = model.Read(item)
		default:
			ops[i] = model.Write(item, v)
		}
	}
	return ops
}

// runInteractive runs ops in program order on the interactive Txn API.
func runInteractive(s *Site, ops []model.Op) model.Outcome {
	txn, err := s.Begin(context.Background())
	if err != nil {
		return model.Outcome{Cause: model.AbortClient}
	}
	for _, op := range ops {
		switch op.Kind {
		case model.OpRead:
			_, err = txn.Read(op.Item)
		case model.OpWrite:
			err = txn.Write(op.Item, op.Value)
		case model.OpAdd:
			err = txn.Add(op.Item, op.Value)
		}
		if err != nil {
			return txn.Abort()
		}
	}
	return txn.Commit()
}

// TestWaveMatchesInteractive is the differential test of one-round
// execution: seeded random one-shot programs give the same outcome, the same
// reads and the same final copies at every site whether they run as one wave
// (Execute) or op by op (the interactive Txn API), under every CCP × RCP —
// and once more under 2PL × QC with its own seed, the combination that was
// the pipeline-off run and keeps that subtest name.
func TestWaveMatchesInteractive(t *testing.T) {
	type combo struct{ ccp, rcp, suffix string }
	var combos []combo
	for _, ccp := range []string{"2pl", "tso", "mvtso"} {
		for _, rcp := range []string{"rowa", "qc"} {
			combos = append(combos, combo{ccp: ccp, rcp: rcp})
		}
	}
	combos = append(combos, combo{ccp: "2pl", rcp: "qc", suffix: "-nopipeline"})
	for i, cb := range combos {
		t.Run(cb.ccp+"-"+cb.rcp+cb.suffix, func(t *testing.T) {
			build := func() *cluster {
				return newClusterCat(t, 3, func(cat *schema.Catalog) {
					for item, initial := range waveItems {
						cat.ReplicateEverywhere(item, initial)
					}
					cat.Protocols = schema.Protocols{RCP: cb.rcp, CCP: cb.ccp, ACP: "2pc"}
				})
			}
			// One home site throughout, so timestamps rise with program order
			// and timestamp ordering never rejects a late arrival.
			wave, inter := build(), build()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			committed := 0
			defer func() {
				if !t.Failed() && committed < 40 {
					t.Errorf("only %d of 80 programs committed: the comparison is mostly of aborts", committed)
				}
			}()
			for n := 0; n < 80; n++ {
				ops := randomProgram(rng)
				got := wave.sites["A"].Execute(context.Background(), ops)
				want := runInteractive(inter.sites["A"], ops)
				if got.Committed {
					committed++
				}
				wave.waitTails()
				inter.waitTails()
				if got.Committed != want.Committed || got.Cause != want.Cause {
					t.Fatalf("program %d %v: wave %v/%v, interactive %v/%v", n, ops, got.Committed, got.Cause, want.Committed, want.Cause)
				}
				if len(got.Reads) != len(want.Reads) {
					t.Fatalf("program %d %v: wave read %v, interactive %v", n, ops, got.Reads, want.Reads)
				}
				for item, v := range want.Reads {
					if g, ok := got.Reads[item]; !ok || g != v {
						t.Fatalf("program %d %v: wave read %v, interactive %v", n, ops, got.Reads, want.Reads)
					}
				}
				for _, id := range wave.ids {
					for item := range waveItems {
						g, _ := wave.sites[id].Store().Get(item)
						w, _ := inter.sites[id].Store().Get(item)
						if g.Value != w.Value || g.Version != w.Version {
							t.Fatalf("program %d %v: copy of %s at %s is %d@v%d after the wave, %d@v%d interactively",
								n, ops, item, id, g.Value, g.Version, w.Value, w.Version)
						}
					}
				}
			}
		})
	}
}

// TestWaveRoundTrips pins the message economy at 3 sites under majority QC,
// for every home, CCP and ACP: a wave costs one copy round trip per remote
// leg however many operations it carries, plus the commit protocol's phases
// at every remote writer (prepare and decision; 3PC adds the pre-commit).
// A 4-read program homed at A or B ships its one remote leg last, folds the
// read-only vote into it and commits locally: 1 round trip, 2 messages.
// Homed at C, its partner A sorts first, so under 2PC C runs its own leg
// first and ships A's after it without waiting (home-first); A's leg is then
// last and folds: 1 round trip, 2 messages too. Under 3PC nothing folds at
// C: A's leg ships first and keeps its vote, 2 round trips (batch, prepare)
// and 4 messages. A read-write program has one remote leg and one remote
// writer. Under 2PC that leg ships last for every home (C's by home-first),
// votes with its reply, and the home forces its own prepare with the
// decision: batch + decision = 2 round trips, 2 × 2 messages plus the one-way
// EndTx cast = 5. Under 3PC every home pays batch + prepare + pre-commit +
// decision = 4 round trips, 9 messages.
//
// A 4-add program writes all three copies, so it has two remote legs. Under
// 2PC both legs ship at once and vote with their reply, so no prepare goes
// out: 2 batches + 2 decisions = 4 round trips, and 4 + 4 messages plus the
// 2 one-way EndTx casts = 10. Under 3PC the legs keep the vote round: 2
// batches + 2 × (prepare, pre-commit, decision) = 8 round trips.
func TestWaveRoundTrips(t *testing.T) {
	reads := []model.Op{model.Read("w"), model.Read("x"), model.Read("y"), model.Read("z")}
	for _, home := range []model.SiteID{"A", "B", "C"} {
		for _, ccp := range []string{"2pl", "tso", "mvtso"} {
			for _, acp := range []string{"2pc", "3pc"} {
				t.Run(fmt.Sprintf("%s-%s-%s", home, ccp, acp), func(t *testing.T) {
					c := newCluster(t, 3, schema.Protocols{RCP: "qc", CCP: ccp, ACP: acp}, waveItems)
					s := c.sites[home]
					run := func(ops ...model.Op) (rounds, msgs uint64) {
						t.Helper()
						before, sent := s.Stats().RoundTrips, c.net.Stats().Sent
						if out := s.Execute(context.Background(), ops); !out.Committed {
							t.Fatalf("%v: %+v", ops, out)
						}
						c.waitTails() // a 2PL commit's decision round runs after the reply
						return s.Stats().RoundTrips - before, c.net.Stats().Sent - sent
					}
					phases := uint64(2) // prepare, decision
					if acp == "3pc" {
						phases = 3 // prepare, pre-commit, decision
					}

					wantRounds, wantMsgs := uint64(1), uint64(2)
					if home == "C" && acp == "3pc" {
						wantRounds, wantMsgs = 2, 4
					}
					if rt, msgs := run(reads...); rt != wantRounds || msgs != wantMsgs {
						t.Errorf("4-read program: %d round trips, %d messages; want %d and %d", rt, msgs, wantRounds, wantMsgs)
					}
					wantRounds = 1 + phases
					if acp == "2pc" {
						wantRounds = 2 // the leg's vote rides its reply
					}
					if rt, msgs := run(model.Read("x"), model.Write("y", 5)); rt != wantRounds || msgs != 2*wantRounds+1 {
						t.Errorf("read-write program: %d round trips, %d messages; want %d and %d", rt, msgs, wantRounds, 2*wantRounds+1)
					}
					wantRounds, wantMsgs = 2+2*phases, 2*(2+2*phases)+2 // batches and phases, 2 EndTx
					if acp == "2pc" {
						wantRounds, wantMsgs = 2+2, 2*(2+2)+2 // the legs' votes ride their replies
					}
					if rt, msgs := run(model.Add("w", 1), model.Add("x", 1), model.Add("y", 1), model.Add("z", 1)); rt != wantRounds || msgs != wantMsgs {
						t.Errorf("4-add program: %d round trips, %d messages; want %d and %d", rt, msgs, wantRounds, wantMsgs)
					}
				})
			}
		}
	}
}

// waitNoHolders waits until no site holds CC state for anything but the
// transactions in keep (releases are acknowledged in the background).
func waitNoHolders(t *testing.T, c *cluster, keep ...model.TxID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stuck []string
		for _, id := range c.ids {
			s := c.sites[id]
			s.mu.Lock()
			ccm := s.ccm
			s.mu.Unlock()
		holders:
			for _, tx := range ccm.Holders(0) {
				for _, k := range keep {
					if tx == k {
						continue holders
					}
				}
				stuck = append(stuck, fmt.Sprintf("%s@%s", tx, id))
			}
		}
		if len(stuck) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("CC state never released: %v", stuck)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWaveReplacesUnreachableMember: when a first-round member gives no
// answer, each operation falls back to the ordinary replacement round and
// the transaction commits on the remaining quorum; the silent member is
// released as a stray once it is reachable again.
func TestWaveReplacesUnreachableMember(t *testing.T) {
	c := newClusterCat(t, 3, func(cat *schema.Catalog) {
		for item, initial := range waveItems {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Timeouts.Op = 100 * time.Millisecond
	})
	c.net.Partition([]model.SiteID{"A", "C", model.NameServerID}, []model.SiteID{"B"})
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("x"), model.Write("y", 7), model.Read("z")})
	if !out.Committed || out.Reads["x"] != 10 || out.Reads["z"] != 30 {
		t.Fatalf("wave with B unreachable = %+v, want commit over {A, C}", out)
	}
	c.waitTails()
	c.net.Heal()
	for _, id := range []model.SiteID{"A", "C"} {
		if got, _ := c.sites[id].Store().Get("y"); got.Value != 7 {
			t.Errorf("y at %s = %d, want 7", id, got.Value)
		}
	}
	waitNoHolders(t, c)
}

// TestWaveCCAbortReleasesEverySite: a CC rejection in the middle of one
// site's batch dooms the transaction, and everything the wave acquired — at
// that site before the rejection, and at the other sites, which ran their
// whole batches meanwhile — is released.
func TestWaveCCAbortReleasesEverySite(t *testing.T) {
	c := newClusterCat(t, 3, func(cat *schema.Catalog) {
		for item, initial := range waveItems {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Timeouts.Lock = 40 * time.Millisecond
	})
	b := c.sites["B"]
	blocker := model.TxID{Site: "C", Seq: 777}
	if err := preWrite(context.Background(), b.ccm, blocker, model.Timestamp{Time: 1, Site: "C"}, "y", 1); err != nil {
		t.Fatal(err)
	}
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 1), model.Write("y", 2), model.Write("z", 3)})
	if out.Committed || out.Cause != model.AbortCC {
		t.Fatalf("wave into a held lock = %+v, want a CC abort", out)
	}
	waitNoHolders(t, c, blocker)
	b.ccm.Abort(blocker)
	if got := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("x"), model.Read("z")}); got.Reads["x"] != 10 || got.Reads["z"] != 30 {
		t.Errorf("aborted wave left writes behind: %+v", got)
	}
}

// TestWaveWaitsShareOneLockTimeout: however many of a wave's operations have
// to wait at a site, the site gives the whole batch ONE lock timeout — so the
// wave fails as a clean CC lock-timeout abort within the home site's attempt
// timeout (Op + Lock), which never expires on a site that is in fact still
// acquiring locks for it and reroutes around it.
func TestWaveWaitsShareOneLockTimeout(t *testing.T) {
	const limit = 300 * time.Millisecond
	c := newClusterCat(t, 2, func(cat *schema.Catalog) {
		for item, initial := range waveItems {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Timeouts.Op, cat.Timeouts.Lock = limit, limit
	})
	b := c.sites["B"]
	first, second := model.TxID{Site: "B", Seq: 701}, model.TxID{Site: "B", Seq: 702}
	for tx, item := range map[model.TxID]model.ItemID{first: "x", second: "y"} {
		if err := preWrite(context.Background(), b.ccm, tx, model.Timestamp{Time: 1, Site: "B"}, item, 1); err != nil {
			t.Fatal(err)
		}
	}
	defer b.ccm.Abort(second)
	// x frees after 0.8 of the limit; y stays held. Waiting a fresh limit for
	// each, B would answer after 1.8 limits — when A is about to stop listening.
	time.AfterFunc(limit*8/10, func() { b.ccm.Abort(first) })

	start := time.Now()
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 1), model.Write("y", 2)})
	waited := time.Since(start)
	if out.Committed || out.Cause != model.AbortCC {
		t.Fatalf("wave waiting on two locks = %+v after %v, want a CC lock-timeout abort", out, waited)
	}
	if waited > limit*3/2 {
		t.Errorf("the abort took %v: the second wait got a fresh %v", waited, limit)
	}
	waitNoHolders(t, c, second)
}

// TestWaveForReleasedTxRefusedWithoutQueuing: a batch that arrives after its
// transaction was released at the site is refused at once — it neither takes
// a lock nor waits in a lock queue behind a holder.
func TestWaveForReleasedTxRefusedWithoutQueuing(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), waveItems) // lock timeout 500 ms
	a, b := c.sites["A"], c.sites["B"]
	blocker := model.TxID{Site: "B", Seq: 1}
	if err := preWrite(context.Background(), b.ccm, blocker, model.Timestamp{Time: 1, Site: "B"}, "x", 1); err != nil {
		t.Fatal(err)
	}
	defer b.ccm.Abort(blocker)

	tx := model.TxID{Site: "A", Seq: 99}
	b.tombstone(tx)
	start := time.Now()
	_, err := a.CopyBatch(context.Background(), "B", rcp.NewSession(tx, model.Timestamp{Time: 2, Site: "A"}),
		[]model.Op{model.Write("w", 1), model.Write("x", 2)}, rcp.Leg{})
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("batch for a released transaction: %v, want a CC refusal", err)
	}
	if waited := time.Since(start); waited > 250*time.Millisecond {
		t.Errorf("refusal took %v: the batch queued behind the lock holder", waited)
	}
	if holders := b.ccm.Holders(0); len(holders) != 1 || holders[0] != blocker {
		t.Errorf("holders at B = %v, want only the blocker", holders)
	}
}

// TestWaveOrderedAdmissionNeverDeadlocksLocally: transactions that write the
// same items in opposite program orders conflict at the one site holding the
// copies; because every wave is admitted in item order they queue behind one
// another — no local waits-for cycle ever forms, nothing times out, and all
// of them commit.
func TestWaveOrderedAdmissionNeverDeadlocksLocally(t *testing.T) {
	c := newClusterCat(t, 3, func(cat *schema.Catalog) {
		for _, item := range []model.ItemID{"p", "q", "r"} {
			cat.PlaceCopies(item, 0, "C")
		}
	})
	const rounds = 40
	programs := [][]model.Op{
		{model.Write("p", 1), model.Write("q", 1), model.Write("r", 1)},
		{model.Write("r", 2), model.Write("q", 2), model.Write("p", 2)},
		{model.Read("q"), model.Write("r", 3), model.Write("p", 3)},
	}
	var wg sync.WaitGroup
	for i, ops := range programs {
		home := c.sites[c.ids[i%2]] // A and B: every copy operation is remote
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				if out := home.Execute(context.Background(), ops); !out.Committed {
					t.Errorf("%v at %s: %+v", ops, home.ID(), out)
					return
				}
			}
		}()
	}
	wg.Wait()
	cs := c.sites["C"].ccm.Stats()
	if cs.Deadlocks != 0 || cs.Timeouts != 0 {
		t.Errorf("site C saw %d deadlocks and %d lock timeouts, want none", cs.Deadlocks, cs.Timeouts)
	}
}

// TestHomeFirstNeverDeadlocks: A-, B- and C-homed read-write waves race on
// two hot items under 2PL. C's own leg would sort last, so its waves run it
// first and ship the remote legs after it without waiting; the others ship
// in site order. Either way a wave waits only for a lock that sorts above
// every lock it holds, so no wait cycle can form. The lock timeout is 5 s,
// far longer than any wave takes: a cycle broken by the timeout, or by the
// deadlock detector, would show as an abort, a wave taking a second or more,
// or a deadlock or timeout in a site's CC counters.
func TestHomeFirstNeverDeadlocks(t *testing.T) {
	for _, rcpName := range rcps {
		t.Run(rcpName, func(t *testing.T) {
			c := rwCluster(t, "2pl", rcpName, func(cat *schema.Catalog) { cat.Timeouts.Lock = 5 * time.Second })
			programs := [][]model.Op{
				{model.Write("x", 1), model.Write("y", 1)},
				{model.Read("x"), model.Write("y", 2)},
				{model.Write("x", 3), model.Read("y")},
			}
			const rounds = 30
			var wg sync.WaitGroup
			for _, id := range c.ids {
				for g := range programs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := 0; n < rounds; n++ {
							ops := programs[(g+n)%len(programs)]
							start := time.Now()
							out := c.sites[id].Execute(context.Background(), ops)
							if took := time.Since(start); !out.Committed || took >= time.Second {
								t.Errorf("%v at %s = %+v after %v, want a commit well under 1 s", ops, id, out, took)
								return
							}
						}
					}()
				}
			}
			wg.Wait()
			c.waitTails()
			noLockTimeouts(t, c)
			if n := c.sites["C"].Stats().HomeFirstWaves; n == 0 {
				t.Error("C shipped no wave home-first")
			}
			waitNoHolders(t, c)
		})
	}
}
