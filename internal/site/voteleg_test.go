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
// home's incarnation fence — under every CCP and both RCPs.

var rcps = []string{"qc", "rowa"}

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

// lastLeg is the site whose leg an A-homed write of every copy set ships
// last: A's partner B under majority quorums, C under ROWA's write-all.
func lastLeg(rcpName string) model.SiteID {
	if rcpName == "rowa" {
		return "C"
	}
	return "B"
}

// writers lists the sites an A-homed write of one item reaches.
func writers(rcpName string) []model.SiteID {
	if rcpName == "rowa" {
		return []model.SiteID{"A", "B", "C"}
	}
	return []model.SiteID{"A", "B"}
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
	for _, ccp := range ccps {
		for _, rcpName := range rcps {
			for _, tc := range []struct {
				name  string
				ahead model.SiteID // the site whose copy of y starts at version 5
				ops   []model.Op
				value int64
			}{
				{"remote-ahead", lastLeg(rcpName), []model.Op{model.Write("y", 7)}, 7},
				{"remote-behind", "A", []model.Op{model.Write("y", 7)}, 7},
				{"write-twice", "A", []model.Op{model.Write("y", 1), model.Write("x", 3), model.Write("y", 2)}, 2},
				{"read-then-write", lastLeg(rcpName), []model.Op{model.Read("y"), model.Write("y", 9)}, 9},
			} {
				t.Run(fmt.Sprintf("%s-%s-%s", ccp, rcpName, tc.name), func(t *testing.T) {
					c := rwCluster(t, ccp, rcpName, func(*schema.Catalog) {})
					if err := c.sites[tc.ahead].Store().Apply([]model.WriteRecord{{Item: "y", Value: waveItems["y"], Version: 5}}); err != nil {
						t.Fatal(err)
					}
					a, last := c.sites["A"], lastLeg(rcpName)
					out := a.Execute(context.Background(), tc.ops)
					if !out.Committed {
						t.Fatalf("%v = %+v", tc.ops, out)
					}
					c.waitTails()
					if n := c.sites[last].Stats().VotedLegs; n != 1 {
						t.Errorf("%s voted %d legs, want 1", last, n)
					}
					if n := a.Stats().HomeForces; n != 1 {
						t.Errorf("home forced %d prepares with the decision, want 1", n)
					}
					voted, ok := preparedWrite(t, c.sites[last], out.Tx, "y")
					home, hok := preparedWrite(t, a, out.Tx, "y")
					if !ok || !hok {
						t.Fatalf("prepared writes of y: %s %v, home %v", last, ok, hok)
					}
					if voted.Version != 6 || home.Version != 6 || voted.Value != tc.value || home.Value != tc.value {
						t.Errorf("prepared y: %s %d@v%d, home %d@v%d; want %d@v6 at both", last, voted.Value, voted.Version, home.Value, home.Version, tc.value)
					}
					for _, id := range writers(rcpName) {
						if got := copyOf(c, id, "y"); got.Value != tc.value || got.Version != 6 {
							t.Errorf("y at %s = %d@v%d, want %d@v6", id, got.Value, got.Version, tc.value)
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
				})
			}
		}
	}
}

// TestVoteLegParticipantCrash: the voted last-leg site crashes before it
// hears the decision (and before it can ask for it). It recovers in doubt —
// the vote's prepared record is in its log — and commits the same value at
// the same version as the rest of the write quorum.
func TestVoteLegParticipantCrash(t *testing.T) {
	for _, ccp := range ccps {
		for _, rcpName := range rcps {
			t.Run(ccp+"-"+rcpName, func(t *testing.T) {
				c := rwCluster(t, ccp, rcpName, func(cat *schema.Catalog) { cat.Timeouts.Ack = 100 * time.Millisecond })
				last := lastLeg(rcpName)
				c.net.Drop(func(env *wire.Envelope) bool {
					return (env.Kind == wire.KindDecision && !env.Reply && env.To == last) ||
						(env.Kind == wire.KindDecisionReq && env.From == last)
				})
				out := c.sites["A"].Execute(context.Background(), []model.Op{model.Read("x"), model.Write("y", 8)})
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
				want := copyOf(c, "A", "y")
				if want.Value != 8 {
					t.Fatalf("y at A = %d, want 8", want.Value)
				}
				for _, id := range writers(rcpName) {
					if got := copyOf(c, id, "y"); got != want {
						t.Errorf("y at %s = %+v, want %+v as at A", id, got, want)
					}
				}
			})
		}
	}
}

// TestVoteLegHomeCrash: the last leg voted, and the home crashes after that
// and before its batch force (held here behind its gate). The participants
// stay in doubt while the home is down, and once it recovers, with nothing
// logged, presumed abort resolves them: no copy changes.
func TestVoteLegHomeCrash(t *testing.T) {
	for _, ccp := range ccps {
		for _, rcpName := range rcps {
			t.Run(ccp+"-"+rcpName, func(t *testing.T) {
				c := rwCluster(t, ccp, rcpName, func(*schema.Catalog) {})
				a := c.sites["A"]
				remote := writers(rcpName)[1:]
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
				c.crash("A")
				a.gate.Unlock()
				if out := <-done; out.Committed {
					t.Fatalf("wave whose home crashed before its force = %+v, want an abort", out)
				}
				c.recover(t, "A")
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

// TestVoteLegLostReply: the voted last leg's reply is lost. Its site may be
// prepared, so the home completes no quorum without it: it abandons the
// attempt and reruns the program with that site left out of the first round
// — the rerun commits over the replacement site (under ROWA, which needs
// every copy, over the silent site too once the abort reached it). The
// silent site resolves the abandoned attempt to abort, the home logs
// nothing for it, and every read quorum then returns the new value.
func TestVoteLegLostReply(t *testing.T) {
	for _, ccp := range ccps {
		for _, rcpName := range rcps {
			t.Run(ccp+"-"+rcpName, func(t *testing.T) {
				c := rwCluster(t, ccp, rcpName, func(cat *schema.Catalog) { cat.Timeouts.Op = 100 * time.Millisecond })
				a, last := c.sites["A"], lastLeg(rcpName)
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
				c.waitTails()
				abandoned := model.TxID{Site: "A", Seq: out.Tx.Seq - 1}
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
				readBack(t, c, "y", 6, c.ids...)
			})
		}
	}
}

// TestVoteLegHomeIncarnationFence: the home's stack is rebuilt between its
// leg and its decision — its incarnation moves on, so the CC protection its
// leg took is gone. Its guards vote no: the transaction aborts, the voted
// leg hears the abort, and nothing is installed anywhere.
func TestVoteLegHomeIncarnationFence(t *testing.T) {
	for _, ccp := range ccps {
		for _, rcpName := range rcps {
			t.Run(ccp+"-"+rcpName, func(t *testing.T) {
				c := rwCluster(t, ccp, rcpName, func(*schema.Catalog) {})
				a, last := c.sites["A"], lastLeg(rcpName)
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

// TestVoteForceTraced: a leg that votes with its reply records its guards
// and prepared-record force as a "vote force" WAL span on its own trace
// fragment — a read-write wave's last leg and an add-only wave's legs alike,
// on the pipelined and the synchronous serve path.
func TestVoteForceTraced(t *testing.T) {
	for _, noPipeline := range []bool{false, true} {
		for _, ops := range [][]model.Op{{model.Read("x"), model.Write("y", 2)}, addProgram(1)} {
			t.Run(fmt.Sprintf("nopipeline=%v-%v", noPipeline, ops), func(t *testing.T) {
				c := rwCluster(t, "2pl", "qc", func(cat *schema.Catalog) {
					cat.Pipeline.Disable = noPipeline
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
