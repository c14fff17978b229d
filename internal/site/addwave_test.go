package site

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Add-only waves under 2PC ship every leg at once without waiting, and each
// remote leg votes with its reply (rcp.PathAddAtOnce, Site.vote). These tests cover
// the vote, the no-wait refusal and its ordered rerun, the release of a voted
// site, and the crash windows the early vote opens — under every CCP.

var ccps = []string{"2pl", "tso", "mvtso"}

// addProgram adds delta to every item of waveItems.
func addProgram(delta int64) []model.Op {
	return []model.Op{model.Add("w", delta), model.Add("x", delta), model.Add("y", delta), model.Add("z", delta)}
}

// addCluster is a 3-site cluster over waveItems under QC and 2PC with the
// given CCP, with customize applied to the catalog.
func addCluster(t *testing.T, ccp string, customize func(*schema.Catalog)) *cluster {
	t.Helper()
	return newClusterCat(t, 3, func(cat *schema.Catalog) {
		for item, initial := range waveItems {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Protocols = schema.Protocols{RCP: "qc", CCP: ccp, ACP: "2pc"}
		customize(cat)
	})
}

// wantCopies checks every copy of every waveItems item holds its initial
// value plus delta.
func wantCopies(t *testing.T, c *cluster, delta int64) {
	t.Helper()
	for _, id := range c.ids {
		for item, initial := range waveItems {
			if got, _ := c.sites[id].Store().Get(item); got.Value != initial+delta {
				t.Errorf("%s at %s = %d, want %d", item, id, got.Value, initial+delta)
			}
		}
	}
}

// noneInDoubt checks that no site holds an in-doubt transaction or reports
// an orphan.
func noneInDoubt(t *testing.T, c *cluster) {
	t.Helper()
	for _, id := range c.ids {
		if n, o := c.sites[id].InDoubtCount(), c.sites[id].Stats().Orphans; n != 0 || o != 0 {
			t.Errorf("%s: %d in doubt, %d orphans; want none", id, n, o)
		}
	}
}

// noLockTimeouts checks that no site's CC manager timed a wait out or broke
// a deadlock.
func noLockTimeouts(t *testing.T, c *cluster) {
	t.Helper()
	for _, id := range c.ids {
		s := c.sites[id]
		s.mu.Lock()
		cs := s.ccm.Stats()
		s.mu.Unlock()
		if cs.Timeouts != 0 || cs.Deadlocks != 0 {
			t.Errorf("%s: %d lock timeouts, %d deadlocks; want none", id, cs.Timeouts, cs.Deadlocks)
		}
	}
}

// TestAddWaveVotesWithReply: an add-only wave commits with both remote legs
// voting in their reply, and each voted leg's prepared record names the home
// as coordinator and the planned sites as participants, with the leg's
// merged deltas as writes. The nopipeline=false|true pair is the former
// pipeline-on/off twin: both runs now take the one synchronous serve path,
// and the pair keeps its subtest names.
func TestAddWaveVotesWithReply(t *testing.T) {
	for _, ccp := range ccps {
		for _, noPipeline := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-nopipeline=%v", ccp, noPipeline), func(t *testing.T) {
				c := addCluster(t, ccp, func(*schema.Catalog) {})
				a := c.sites["A"]
				ops := append(addProgram(1), model.Add("x", 2))
				out := a.Execute(context.Background(), ops)
				if !out.Committed {
					t.Fatalf("add-only wave = %+v", out)
				}
				c.waitTails()
				if st := a.Stats(); st.AddWaves != 1 || st.AddWaveReruns != 0 {
					t.Errorf("home counts %d add waves, %d reruns; want 1 and 0", st.AddWaves, st.AddWaveReruns)
				}
				for _, id := range []model.SiteID{"B", "C"} {
					s := c.sites[id]
					if n := s.Stats().VotedLegs; n != 1 {
						t.Errorf("%s voted %d legs, want 1", id, n)
					}
					recs, err := s.log.ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					i := slices.IndexFunc(recs, func(r wal.Record) bool { return r.Type == wal.RecPrepared && r.Tx == out.Tx })
					if i < 0 {
						t.Fatalf("%s logged no prepared record for %s", id, out.Tx)
					}
					r := recs[i]
					if r.Coordinator != "A" || !slices.Equal(r.Participants, c.ids) {
						t.Errorf("%s prepared with coordinator %s, participants %v; want A and %v", id, r.Coordinator, r.Participants, c.ids)
					}
					if len(r.Writes) != 4 || r.Writes[1].Item != "x" || r.Writes[1].Value != 3 || !r.Writes[1].Delta {
						t.Errorf("%s prepared writes %+v, want one merged delta per item (x: 3)", id, r.Writes)
					}
				}
				noneInDoubt(t, c)
				for _, id := range c.ids {
					if got, _ := c.sites[id].Store().Get("x"); got.Value != waveItems["x"]+3 {
						t.Errorf("x at %s = %d, want %d", id, got.Value, waveItems["x"]+3)
					}
				}
			})
		}
	}
}

// TestAddWaveReleaseKeepsVotedProtection: a release that reaches a site
// after its leg voted tombstones the transaction there but leaves its
// prepared state and intents to the decision; the abort decision then frees
// them.
func TestAddWaveReleaseKeepsVotedProtection(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := addCluster(t, ccp, func(*schema.Catalog) {})
			a, b := c.sites["A"], c.sites["B"]
			sess := rcp.NewSession(model.TxID{Site: "A", Seq: 5}, model.Timestamp{Time: 1, Site: "A"})
			rep, err := a.CopyBatch(context.Background(), "B", sess, []model.Op{model.Add("x", 1), model.Add("y", 1)},
				rcp.Leg{Vote: true, Cohort: []model.SiteID{"A", "B"}})
			if err != nil || !rep.Voted {
				t.Fatalf("vote leg = %+v, %v; want voted", rep, err)
			}
			a.releaseAt("B", sess.Tx)
			deadline := time.Now().Add(5 * time.Second)
			for !b.isReleased(sess.Tx) {
				if time.Now().After(deadline) {
					t.Fatal("the release never reached B")
				}
				time.Sleep(time.Millisecond)
			}
			b.mu.Lock()
			ccm := b.ccm
			b.mu.Unlock()
			if !b.part.Prepared(sess.Tx) || !ccm.HoldsIntents(sess.Tx, []model.ItemID{"x", "y"}) {
				t.Fatal("the release freed a voted site's prepared state")
			}
			if err := a.Decide(context.Background(), "B", sess.Tx, false, false); err != nil {
				t.Fatal(err)
			}
			if b.InDoubtCount() != 0 || len(holders(b)) != 0 {
				t.Errorf("after the abort decision: %d in doubt, holders %v; want none", b.InDoubtCount(), holders(b))
			}
		})
	}
}

// TestAddWaveWouldBlockRerunsOrdered: C holds a foreign lock (2PL) or intent
// (TSO, MVTSO) on z, so C's no-wait leg refuses while B's votes. The home
// abandons the attempt — releases everywhere, withdraws B's vote — and reruns
// the program as an ordered wave, which waits at C until the holder goes and
// then commits. The rerun counter shows it, every delta lands exactly once,
// and once the home's tails are done no site holds anything in doubt.
func TestAddWaveWouldBlockRerunsOrdered(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := addCluster(t, ccp, func(cat *schema.Catalog) { cat.Timeouts.Lock = 5 * time.Second })
			holder, home := c.sites["C"], c.sites["A"]
			blocker := model.TxID{Site: "C", Seq: 1}
			if err := preWrite(context.Background(), holder.ccm, blocker, model.Timestamp{Time: 1, Site: "C"}, "z", 1); err != nil {
				t.Fatal(err)
			}
			done := make(chan model.Outcome, 1)
			go func() { done <- home.Execute(context.Background(), addProgram(1)) }()

			deadline := time.Now().Add(5 * time.Second)
			for home.Stats().AddWaveReruns == 0 {
				if time.Now().After(deadline) {
					holder.ccm.Abort(blocker)
					t.Fatal("the wave never reran")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // let the rerun queue behind the holder
			holder.ccm.Abort(blocker)
			out := <-done
			if !out.Committed {
				t.Fatalf("rerun wave = %+v, want committed", out)
			}
			if st := home.Stats(); st.AddWaves != 1 || st.AddWaveReruns != 1 || st.Committed != 1 || st.Began != 1 {
				t.Errorf("home stats: %d add waves, %d reruns, %d began, %d committed; want 1 each", st.AddWaves, st.AddWaveReruns, st.Began, st.Committed)
			}
			c.waitTails()
			noneInDoubt(t, c)
			waitNoHolders(t, c)
			wantCopies(t, c, 1)
			noLockTimeouts(t, c)
		})
	}
}

// TestWindowVotedParticipantCrash: B votes with its leg and crashes before it
// hears the decision (and before it can ask for it). It recovers in doubt —
// the vote's prepared record is in its log — and resolves to the home's
// commit.
func TestWindowVotedParticipantCrash(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := addCluster(t, ccp, func(cat *schema.Catalog) { cat.Timeouts.Ack = 100 * time.Millisecond })
			c.net.Drop(func(env *wire.Envelope) bool {
				return (env.Kind == wire.KindDecision && !env.Reply && env.To == "B") ||
					(env.Kind == wire.KindDecisionReq && env.From == "B")
			})
			out := c.sites["A"].Execute(context.Background(), addProgram(2))
			if !out.Committed {
				t.Fatalf("add-only wave = %+v", out)
			}
			c.crash("B")
			c.net.Drop(nil)
			c.recover(t, "B")
			if n := c.sites["B"].InDoubtCount(); n != 1 {
				t.Fatalf("B recovered with %d transactions in doubt, want its voted one", n)
			}
			waitDecided(t, c, "B")
			if commit, known := c.sites["B"].part.Decision(out.Tx); !known || !commit {
				t.Errorf("B resolved to (%v, %v), want commit", commit, known)
			}
			c.waitTails()
			wantCopies(t, c, 2)
		})
	}
}

// TestWindowAddWaveHomeCrash: both remote legs voted, and the home crashes
// before its own vote and decision force (held here behind its gate). The
// participants stay in doubt while the home is down — 2PC blocks — and once
// it recovers, with no decision logged, presumed abort resolves them: no
// delta is applied anywhere.
func TestWindowAddWaveHomeCrash(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := addCluster(t, ccp, func(*schema.Catalog) {})
			a := c.sites["A"]
			a.gate.Lock()
			done := make(chan model.Outcome, 1)
			go func() { done <- a.Execute(context.Background(), addProgram(3)) }()
			deadline := time.Now().Add(5 * time.Second)
			for c.sites["B"].InDoubtCount() != 1 || c.sites["C"].InDoubtCount() != 1 {
				if time.Now().After(deadline) {
					a.gate.Unlock()
					t.Fatal("the remote legs never voted")
				}
				time.Sleep(time.Millisecond)
			}
			c.crash("A")
			a.gate.Unlock()
			if out := <-done; out.Committed {
				t.Fatalf("wave whose home crashed before deciding = %+v, want an abort", out)
			}
			time.Sleep(150 * time.Millisecond) // several resolver ticks
			for _, id := range []model.SiteID{"B", "C"} {
				if n := c.sites[id].InDoubtCount(); n != 1 {
					t.Errorf("%s in doubt on %d transactions while the home is down, want 1", id, n)
				}
			}
			c.recover(t, "A")
			waitDecided(t, c, "B", "C")
			waitNoHolders(t, c)
			wantCopies(t, c, 0)
		})
	}
}

// execCC runs ops at s, resubmitting on a CC abort (a timestamp-order
// rejection under TSO and MVTSO) the way a client restarts.
func execCC(s *Site, ops []model.Op) model.Outcome {
	var out model.Outcome
	for attempt := 0; attempt < 20; attempt++ {
		if out = s.Execute(context.Background(), ops); out.Committed || out.Cause != model.AbortCC {
			break
		}
	}
	return out
}

// TestAddWavesFromTwoHomesNeverTimeOut: add-only waves from two homes on the
// same unsplit items commit without a lock timeout or a deadlock anywhere:
// a no-wait attempt never waits, and a rerun waits only in the global order.
func TestAddWavesFromTwoHomesNeverTimeOut(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := addCluster(t, ccp, func(cat *schema.Catalog) {
				cat.Protocols.NoHotSplit = true
				cat.Timeouts.Lock = 2 * time.Second
			})
			const rounds = 25
			var wg sync.WaitGroup
			for _, id := range []model.SiteID{"A", "B"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < rounds; n++ {
						if out := execCC(c.sites[id], addProgram(1)); !out.Committed {
							t.Errorf("add-only wave at %s = %+v", id, out)
							return
						}
					}
				}()
			}
			wg.Wait()
			c.waitTails()
			noLockTimeouts(t, c)
			noneInDoubt(t, c)
			wantCopies(t, c, 2*rounds)
		})
	}
}

// TestAddWaveRacesReadWriteWave: an add-only wave racing an ordered
// read-write wave on the same items ends with both committed — the add wave
// perhaps rerun — and no lock timeout or deadlock anywhere. Under 2PL
// neither ever aborts; under TSO and MVTSO a timestamp-order rejection is
// restarted.
func TestAddWaveRacesReadWriteWave(t *testing.T) {
	for _, ccp := range ccps {
		t.Run(ccp, func(t *testing.T) {
			c := addCluster(t, ccp, func(cat *schema.Catalog) {
				cat.Protocols.NoHotSplit = true
				cat.Timeouts.Lock = 2 * time.Second
			})
			const rounds = 25
			exec := execCC
			if ccp == "2pl" {
				exec = func(s *Site, ops []model.Op) model.Outcome { return s.Execute(context.Background(), ops) }
			}
			var wg sync.WaitGroup
			for _, p := range []struct {
				home model.SiteID
				ops  []model.Op
			}{
				{"A", []model.Op{model.Add("x", 1), model.Add("y", 1)}},
				{"B", []model.Op{model.Read("x"), model.Write("y", 7), model.Read("z")}},
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < rounds; n++ {
						if out := exec(c.sites[p.home], p.ops); !out.Committed {
							t.Errorf("%v at %s = %+v", p.ops, p.home, out)
							return
						}
					}
				}()
			}
			wg.Wait()
			c.waitTails()
			noLockTimeouts(t, c)
			noneInDoubt(t, c)
			for _, id := range c.ids {
				if got, _ := c.sites[id].Store().Get("x"); got.Value != waveItems["x"]+rounds {
					t.Errorf("x at %s = %d, want %d", id, got.Value, waveItems["x"]+rounds)
				}
			}
		})
	}
}
