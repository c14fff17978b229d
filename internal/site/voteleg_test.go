package site

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Under 2PC a wave that writes lets its remote last leg vote with its reply,
// carrying per operation the highest version the earlier legs reported, and
// the home forces its own prepared record with the decision (CommitHome).
// These tests cover the version the voted leg prepares, the crash windows
// the early vote and the single force open, the lost-reply rerun and the
// home's incarnation fence — under every CCP and both RCPs, for a home whose
// leg sorts first (A) and for one whose leg would sort last (C), which runs
// its own leg first and ships the remote legs after it without waiting
// (home-first).

var rcps = []string{"qc", "rowa"}

// voteHomes are the homes the vote-leg tests run a wave at.
var voteHomes = []model.SiteID{"A", "C"}

// homeName suffixes a subtest name with a home other than A.
func homeName(name string, home model.SiteID) string {
	if home == "A" {
		return name
	}
	return name + "-home" + string(home)
}

// rwCluster is a 3-site cluster over waveItems under 2PC with the given CCP
// and RCP, with customize applied to the catalog.
func rwCluster(t *testing.T, ccp, rcpName string, customize func(*schema.Catalog)) *cluster {
	t.Helper()
	return newClusterCat(t, 3, func(cat *schema.Catalog) {
		for item, initial := range waveItems {
			cat.ReplicateEverywhere(item, initial)
		}
		cat.Protocols = schema.Protocols{RCP: rcpName, CCP: ccp, ACP: "2pc"}
		customize(cat)
	})
}

// homeFirstWaves is how many home-first waves one wave's first attempt homed
// at A or C counts: C's own leg would sort last, A's sorts first.
func homeFirstWaves(home model.SiteID) uint64 {
	if home == "C" {
		return 1
	}
	return 0
}

// lastLeg is the site whose leg a write of every copy set ships last, homed
// at A or C. Under majority quorums that is the home's partner: A's is B, and
// C's is A, which sorts first but ships after C's own leg (home-first). Under
// ROWA's write-all it is the highest site other than the home.
func lastLeg(rcpName string, home model.SiteID) model.SiteID {
	switch {
	case rcpName == "qc" && home == "A":
		return "B"
	case rcpName == "qc":
		return "A"
	case home == "C":
		return "B"
	}
	return "C"
}

// writers lists the sites a write of one item reaches, homed at A or C,
// with the home first.
func writers(rcpName string, home model.SiteID) []model.SiteID {
	if rcpName == "rowa" {
		return everySite(home)
	}
	return []model.SiteID{home, lastLeg(rcpName, home)}
}

// everySite lists the three sites, home first.
func everySite(home model.SiteID) []model.SiteID {
	return append([]model.SiteID{home}, slices.DeleteFunc([]model.SiteID{"A", "B", "C"}, func(id model.SiteID) bool { return id == home })...)
}

// preparedWrite returns the write of item in tx's prepared record at s.
func preparedWrite(t *testing.T, s *Site, tx model.TxID, item model.ItemID) (model.WriteRecord, bool) {
	t.Helper()
	recs, err := s.log.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type != wal.RecPrepared || r.Tx != tx {
			continue
		}
		for _, w := range r.Writes {
			if w.Item == item {
				return w, true
			}
		}
	}
	return model.WriteRecord{}, false
}

// copyOf returns item's copy at site id.
func copyOf(c *cluster, id model.SiteID, item model.ItemID) storage.Copy {
	got, _ := c.sites[id].Store().Get(item)
	return got
}

// TestVoteLegVersionAgreement: the version a voted last leg prepares equals
// the home's install version — when the voting site's copy is ahead of the
// home's, when it is behind, when the program writes the item twice, and
// when it reads and then writes it — and every copy written ends with the
// same value at that version. The home prepares with its decision: one
// prepared record right before the commit decision.
func TestVoteLegVersionAgreement(t *testing.T) {
	for _, home := range voteHomes {
		for _, ccp := range ccps {
			for _, rcpName := range rcps {
				for _, tc := range []struct {
					name   string
					remote bool // the last leg's copy of y starts at version 5, else the home's
					ops    []model.Op
					value  int64
				}{
					{"remote-ahead", true, []model.Op{model.Write("y", 7)}, 7},
					{"remote-behind", false, []model.Op{model.Write("y", 7)}, 7},
					{"write-twice", false, []model.Op{model.Write("y", 1), model.Write("x", 3), model.Write("y", 2)}, 2},
					{"read-then-write", true, []model.Op{model.Read("y"), model.Write("y", 9)}, 9},
				} {
					t.Run(homeName(fmt.Sprintf("%s-%s-%s", ccp, rcpName, tc.name), home), func(t *testing.T) {
						testVoteLegVersion(t, ccp, rcpName, home, tc.remote, tc.ops, tc.value)
					})
				}
			}
		}
	}
}

// testVoteLegVersion runs one case of TestVoteLegVersionAgreement.
func testVoteLegVersion(t *testing.T, ccp, rcpName string, home model.SiteID, remote bool, ops []model.Op, value int64) {
	c := rwCluster(t, ccp, rcpName, func(*schema.Catalog) {})
	a, last := c.sites[home], lastLeg(rcpName, home)
	ahead := home
	if remote {
		ahead = last
	}
	if err := c.sites[ahead].Store().Apply([]model.WriteRecord{{Item: "y", Value: waveItems["y"], Version: 5}}); err != nil {
		t.Fatal(err)
	}
	out := a.Execute(context.Background(), ops)
	if !out.Committed {
		t.Fatalf("%v = %+v", ops, out)
	}
	c.waitTails()
	if n := c.sites[last].Stats().VotedLegs; n != 1 {
		t.Errorf("%s voted %d legs, want 1", last, n)
	}
	if n := a.Stats().HomeForces; n != 1 {
		t.Errorf("home forced %d prepares with the decision, want 1", n)
	}
	if n := a.Stats().HomeFirstWaves; n != homeFirstWaves(home) {
		t.Errorf("home shipped %d waves home-first, want %d", n, homeFirstWaves(home))
	}
	voted, ok := preparedWrite(t, c.sites[last], out.Tx, "y")
	own, hok := preparedWrite(t, a, out.Tx, "y")
	if !ok || !hok {
		t.Fatalf("prepared writes of y: %s %v, home %v", last, ok, hok)
	}
	if voted.Version != 6 || own.Version != 6 || voted.Value != value || own.Value != value {
		t.Errorf("prepared y: %s %d@v%d, home %d@v%d; want %d@v6 at both", last, voted.Value, voted.Version, own.Value, own.Version, value)
	}
	for _, id := range writers(rcpName, home) {
		if got := copyOf(c, id, "y"); got.Value != value || got.Version != 6 {
			t.Errorf("y at %s = %d@v%d, want %d@v6", id, got.Value, got.Version, value)
		}
	}
	recs, err := a.log.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(recs, func(r wal.Record) bool { return r.Type == wal.RecPrepared && r.Tx == out.Tx })
	if i < 0 || i+1 >= len(recs) || recs[i+1].Type != wal.RecDecision || recs[i+1].Tx != out.Tx || !recs[i+1].Commit {
		t.Errorf("home log: prepared record at %d not followed by its commit decision", i)
	}
}

// TestVoteLegParticipantCrash: the voted last-leg site crashes before it
// hears the decision (and before it can ask for it). It recovers in doubt —
// the vote's prepared record is in its log — and commits the same value at
// the same version as the rest of the write quorum.
func TestVoteLegParticipantCrash(t *testing.T) {
	for _, home := range voteHomes {
		for _, ccp := range ccps {
			for _, rcpName := range rcps {
				t.Run(homeName(ccp+"-"+rcpName, home), func(t *testing.T) {
					c := rwCluster(t, ccp, rcpName, func(cat *schema.Catalog) { cat.Timeouts.Ack = 100 * time.Millisecond })
					last := lastLeg(rcpName, home)
					c.net.Drop(func(env *wire.Envelope) bool {
						return (env.Kind == wire.KindDecision && !env.Reply && env.To == last) ||
							(env.Kind == wire.KindDecisionReq && env.From == last)
					})
					out := c.sites[home].Execute(context.Background(), []model.Op{model.Read("x"), model.Write("y", 8)})
					if !out.Committed {
						t.Fatalf("read-write wave = %+v", out)
					}
					c.crash(last)
					c.net.Drop(nil)
					c.recover(t, last)
					if n := c.sites[last].InDoubtCount(); n != 1 {
						t.Fatalf("%s recovered with %d transactions in doubt, want its voted one", last, n)
					}
					waitDecided(t, c, last)
					if commit, known := c.sites[last].part.Decision(out.Tx); !known || !commit {
						t.Errorf("%s resolved to (%v, %v), want commit", last, commit, known)
					}
					c.waitTails()
					want := copyOf(c, home, "y")
					if want.Value != 8 {
						t.Fatalf("y at %s = %d, want 8", home, want.Value)
					}
					for _, id := range writers(rcpName, home) {
						if got := copyOf(c, id, "y"); got != want {
							t.Errorf("y at %s = %+v, want %+v as at %s", id, got, want, home)
						}
					}
				})
			}
		}
	}
}

// TestVoteLegHomeCrash: the last leg voted, and the home crashes after that
// and before its batch force (held here behind its gate). The participants
// stay in doubt while the home is down, and once it recovers, with nothing
// logged, presumed abort resolves them: no copy changes.
func TestVoteLegHomeCrash(t *testing.T) {
	for _, home := range voteHomes {
		for _, ccp := range ccps {
			for _, rcpName := range rcps {
				t.Run(homeName(ccp+"-"+rcpName, home), func(t *testing.T) {
					c := rwCluster(t, ccp, rcpName, func(*schema.Catalog) {})
					a := c.sites[home]
					remote := writers(rcpName, home)[1:]
					a.gate.Lock()
					done := make(chan model.Outcome, 1)
					go func() { done <- a.Execute(context.Background(), []model.Op{model.Write("y", 4)}) }()
					deadline := time.Now().Add(5 * time.Second)
					for slices.ContainsFunc(remote, func(id model.SiteID) bool { return c.sites[id].InDoubtCount() != 1 }) {
						if time.Now().After(deadline) {
							a.gate.Unlock()
							t.Fatal("the remote writers never prepared")
						}
						time.Sleep(time.Millisecond)
					}
					c.crash(home)
					a.gate.Unlock()
					if out := <-done; out.Committed {
						t.Fatalf("wave whose home crashed before its force = %+v, want an abort", out)
					}
					c.recover(t, home)
					waitDecided(t, c, remote...)
					waitNoHolders(t, c)
					for _, id := range c.ids {
						if got := copyOf(c, id, "y"); got.Value != waveItems["y"] || got.Version != 0 {
							t.Errorf("y at %s = %d@v%d, want it untouched", id, got.Value, got.Version)
						}
					}
				})
			}
		}
	}
}

// TestVoteLegLostReply: the voted last leg's reply is lost. Its site may be
// prepared, so the home completes no quorum without it: it abandons the
// attempt and reruns the program with that site left out of the first round
// — the rerun commits over the replacement site (under ROWA, which needs
// every copy, over the silent site too once the abort reached it). The
// silent site resolves the abandoned attempt to abort, the home logs
// nothing for it, and every read quorum then returns the new value.
func TestVoteLegLostReply(t *testing.T) {
	for _, home := range voteHomes {
		for _, ccp := range ccps {
			for _, rcpName := range rcps {
				t.Run(homeName(ccp+"-"+rcpName, home), func(t *testing.T) {
					c := rwCluster(t, ccp, rcpName, func(cat *schema.Catalog) { cat.Timeouts.Op = 100 * time.Millisecond })
					a, last := c.sites[home], lastLeg(rcpName, home)
					var dropped atomic.Bool
					c.net.Drop(func(env *wire.Envelope) bool {
						return env.Kind == wire.KindCopyBatch && env.Reply && env.From == last && dropped.CompareAndSwap(false, true)
					})
					out := a.Execute(context.Background(), []model.Op{model.Write("y", 6)})
					if !out.Committed {
						t.Fatalf("wave with a lost vote = %+v, want a committed rerun", out)
					}
					if !dropped.Load() {
						t.Fatal("no reply was dropped")
					}
					if st := a.Stats(); st.VoteLostReruns != 1 || st.Began != 1 || st.Committed != 1 {
						t.Errorf("home stats: %d lost-vote reruns, %d began, %d committed; want 1 each", st.VoteLostReruns, st.Began, st.Committed)
					}
					if st := a.Stats(); st.HomeFirstWaves != homeFirstWaves(home) || st.HomeFirstReruns != 0 {
						t.Errorf("home stats: %d home-first waves, %d home-first reruns; want %d and 0", st.HomeFirstWaves, st.HomeFirstReruns, homeFirstWaves(home))
					}
					c.waitTails()
					abandoned := model.TxID{Site: home, Seq: out.Tx.Seq - 1}
					waitDecided(t, c, c.ids...)
					if commit, known := c.sites[last].part.Decision(abandoned); known && commit {
						t.Errorf("%s resolved the abandoned attempt to commit", last)
					}
					if _, ok := preparedWrite(t, c.sites[last], abandoned, "y"); !ok {
						t.Errorf("%s never prepared the abandoned attempt: the drop missed the vote", last)
					}
					recs, err := a.log.ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					if i := slices.IndexFunc(recs, func(r wal.Record) bool { return r.Tx == abandoned }); i >= 0 {
						t.Errorf("the home logged %+v for the abandoned attempt, want nothing (presumed abort)", recs[i])
					}
					waitNoHolders(t, c)
					// Read back homed at the home first: the silent site heard
					// nothing of the rerun, and under TSO and MVTSO a read homed
					// there before any message carried the rerun's time would
					// rightly serialize before the write.
					readBack(t, c, "y", 6, everySite(home)...)
				})
			}
		}
	}
}

// TestVoteLegHomeIncarnationFence: the home's stack is rebuilt between its
// leg and its decision — its incarnation moves on, so the CC protection its
// leg took is gone. Its guards vote no: the transaction aborts, the voted
// leg hears the abort, and nothing is installed anywhere.
func TestVoteLegHomeIncarnationFence(t *testing.T) {
	for _, home := range voteHomes {
		for _, ccp := range ccps {
			for _, rcpName := range rcps {
				t.Run(homeName(ccp+"-"+rcpName, home), func(t *testing.T) {
					c := rwCluster(t, ccp, rcpName, func(*schema.Catalog) {})
					a, last := c.sites[home], lastLeg(rcpName, home)
					a.gate.Lock()
					done := make(chan model.Outcome, 1)
					go func() { done <- a.Execute(context.Background(), []model.Op{model.Write("y", 3)}) }()
					deadline := time.Now().Add(5 * time.Second)
					for c.sites[last].InDoubtCount() != 1 {
						if time.Now().After(deadline) {
							a.gate.Unlock()
							t.Fatal("the last leg never voted")
						}
						time.Sleep(time.Millisecond)
					}
					a.mu.Lock()
					a.incarnation++
					a.mu.Unlock()
					a.gate.Unlock()
					out := <-done
					if out.Committed || out.Cause != model.AbortACP {
						t.Fatalf("wave across a home rebuild = %+v, want an ACP abort", out)
					}
					c.waitTails()
					waitDecided(t, c, c.ids...)
					waitNoHolders(t, c)
					if n := a.Stats().HomeForces; n != 0 {
						t.Errorf("home forced %d prepares, want none", n)
					}
					for _, id := range c.ids {
						if got := copyOf(c, id, "y"); got.Value != waveItems["y"] || got.Version != 0 {
							t.Errorf("y at %s = %d@v%d, want it untouched", id, got.Value, got.Version)
						}
					}
				})
			}
		}
	}
}

// TestVoteForceTraced: a leg that votes with its reply records its guards
// and prepared-record force as a "vote force" WAL span on its own trace
// fragment — a read-write wave's last leg and an add-only wave's legs alike.
// The nopipeline=false|true pair is the former pipeline-on/off twin: both
// runs now take the one synchronous serve path, and the pair keeps its
// subtest names.
func TestVoteForceTraced(t *testing.T) {
	for _, noPipeline := range []bool{false, true} {
		for _, ops := range [][]model.Op{{model.Read("x"), model.Write("y", 2)}, addProgram(1)} {
			t.Run(fmt.Sprintf("nopipeline=%v-%v", noPipeline, ops), func(t *testing.T) {
				c := rwCluster(t, "2pl", "qc", func(cat *schema.Catalog) {
					cat.Trace = schema.TracePolicy{SampleRate: 1, Ring: 64}
				})
				if out := c.sites["A"].Execute(context.Background(), ops); !out.Committed {
					t.Fatalf("%v = %+v", ops, out)
				}
				c.waitTails()
				var forces int
				for _, fr := range c.sites["B"].Traces() {
					for _, sp := range fr.Spans {
						if sp.Stage == trace.StageWALAppend && sp.Note == "vote force" {
							forces++
						}
					}
				}
				if forces != 1 {
					t.Errorf("B recorded %d vote-force spans, want 1", forces)
				}
			})
		}
	}
}

// TestHomeFirstRefusalReruns: A holds a foreign lock (2PL) or intent (TSO,
// MVTSO) on y, so the no-wait leg a C-homed wave ships to A after C's own
// refuses. The home abandons the attempt and reruns the program as an
// ordered wave, which waits at A until the holder goes and then commits. The
// home-first counters show it, the add-wave rerun counter does not, and once
// the home's tails are done no site holds anything in doubt or any CC state.
func TestHomeFirstRefusalReruns(t *testing.T) {
	for _, ccp := range ccps {
		for _, rcpName := range rcps {
			t.Run(ccp+"-"+rcpName, func(t *testing.T) {
				c := rwCluster(t, ccp, rcpName, func(cat *schema.Catalog) { cat.Timeouts.Lock = 5 * time.Second })
				holder, home := c.sites["A"], c.sites["C"]
				blocker := model.TxID{Site: "A", Seq: 1}
				if err := preWrite(context.Background(), holder.ccm, blocker, model.Timestamp{Time: 1, Site: "A"}, "y", 1); err != nil {
					t.Fatal(err)
				}
				done := make(chan model.Outcome, 1)
				go func() { done <- home.Execute(context.Background(), []model.Op{model.Read("x"), model.Write("y", 5)}) }()

				deadline := time.Now().Add(5 * time.Second)
				for home.Stats().HomeFirstReruns == 0 {
					if time.Now().After(deadline) {
						holder.ccm.Abort(blocker)
						t.Fatal("the wave never reran")
					}
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond) // let the rerun queue behind the holder
				holder.ccm.Abort(blocker)
				out := <-done
				if !out.Committed || out.Reads["x"] != waveItems["x"] {
					t.Fatalf("rerun wave = %+v, want committed", out)
				}
				st := home.Stats()
				if st.HomeFirstWaves != 1 || st.HomeFirstReruns != 1 || st.Began != 1 || st.Committed != 1 {
					t.Errorf("home stats: %d home-first waves, %d reruns, %d began, %d committed; want 1 each", st.HomeFirstWaves, st.HomeFirstReruns, st.Began, st.Committed)
				}
				if st.AddWaveReruns != 0 || st.VoteLostReruns != 0 {
					t.Errorf("home stats: %d add-wave reruns, %d lost-vote reruns; want none", st.AddWaveReruns, st.VoteLostReruns)
				}
				c.waitTails()
				noneInDoubt(t, c)
				waitNoHolders(t, c)
				noLockTimeouts(t, c)
				readBack(t, c, "y", 5, c.ids...)
			})
		}
	}
}
