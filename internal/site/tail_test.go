package site

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Under 2PL a commit replies once its decision is forced; phase 2 (the
// commit tail) runs after the reply. These tests cover the window between
// the two: a crash in it, what a client can read in it, and the site
// lifecycle around it.

// dropDecisions makes the network lose every decision from sends to the
// given sites (to all when none are named). Replies to decision requests
// share the message kind and still flow.
func dropDecisions(c *cluster, from model.SiteID, to ...model.SiteID) {
	c.net.Drop(func(env *wire.Envelope) bool {
		return env.Kind == wire.KindDecision && !env.Reply && env.From == from &&
			(len(to) == 0 || slices.Contains(to, env.To))
	})
}

// crash takes a site down the way a process crash looks from outside.
func (c *cluster) crash(id model.SiteID) {
	c.net.Pause(id)
	c.sites[id].Crash()
}

// recover brings a crashed site back from its WAL.
func (c *cluster) recover(t *testing.T, id model.SiteID) {
	t.Helper()
	if err := c.sites[id].Recover(); err != nil {
		t.Fatal(err)
	}
	c.net.Resume(id)
}

// waitDecided waits until none of the given sites holds an in-doubt
// transaction and every decision that resolved one is logged and applied,
// so callers can assert the decision and the copies it installed.
// Participant.decide takes a transaction out of the in-doubt table before
// it logs and applies the outcome, all under the read side of the site's
// checkpoint gate; taking the write side waits those decides out.
func waitDecided(t *testing.T, c *cluster, ids ...model.SiteID) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for {
		var left []string
		for _, id := range ids {
			if n := c.sites[id].InDoubtCount(); n != 0 {
				left = append(left, fmt.Sprintf("%s=%d", id, n))
			}
		}
		if len(left) == 0 {
			for _, id := range ids {
				c.sites[id].gate.Lock()
				c.sites[id].gate.Unlock()
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt transactions never resolved: %v", left)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readBack checks that a transaction homed at each given site reads want.
func readBack(t *testing.T, c *cluster, item model.ItemID, want int64, homes ...model.SiteID) {
	t.Helper()
	for _, home := range homes {
		out := c.sites[home].Execute(context.Background(), []model.Op{model.Read(item)})
		if !out.Committed || out.Reads[item] != want {
			t.Errorf("read of %s homed at %s = %+v, want %d", item, home, out, want)
		}
	}
}

// commitInWindow commits a write of x at home A whose decisions are lost on
// the way to the given sites (all when none are named), and checks that the
// client was told "committed" all the same.
func commitInWindow(t *testing.T, c *cluster, to ...model.SiteID) model.Outcome {
	t.Helper()
	dropDecisions(c, "A", to...)
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 5)})
	if !out.Committed {
		t.Fatalf("write = %+v, want committed before phase 2", out)
	}
	return out
}

// TestWindowHomeCrash2PC: the home replies "committed" and crashes before
// any participant hears the decision. The participant stays prepared (2PC
// blocks) and commits once the home recovers its logged decision.
func TestWindowHomeCrash2PC(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	out := commitInWindow(t, c)
	c.crash("A")
	c.net.Drop(nil)

	// Majority QC homed at A writes {A, B}: B voted yes and is now blocked.
	b := c.sites["B"]
	time.Sleep(200 * time.Millisecond) // several resolver ticks
	if n := b.InDoubtCount(); n != 1 {
		t.Fatalf("B in doubt on %d transactions while the home is down, want 1", n)
	}
	if got, _ := b.Store().Get("x"); got.Value != 10 {
		t.Fatalf("B installed x = %d without a decision", got.Value)
	}

	c.recover(t, "A")
	waitDecided(t, c, "B")
	if commit, known := b.part.Decision(out.Tx); !known || !commit {
		t.Errorf("B's decision = (%v, %v), want commit", commit, known)
	}
	readBack(t, c, "x", 5, "A", "B", "C")
}

// TestWindowHomeCrash3PC: the same crash under 3PC. The pre-commit quorum
// formed before the reply, so the rest of the electorate terminates to
// commit without the home (ROWA writes every copy: electorate {A, B, C}).
func TestWindowHomeCrash3PC(t *testing.T) {
	c := newCluster(t, 3, schema.Protocols{RCP: "rowa", CCP: "2pl", ACP: "3pc"}, items())
	out := commitInWindow(t, c)
	c.crash("A")
	c.net.Drop(nil)

	waitDecided(t, c, "B", "C")
	for _, id := range []model.SiteID{"B", "C"} {
		if commit, known := c.sites[id].part.Decision(out.Tx); !known || !commit {
			t.Errorf("%s terminated to (%v, %v), want commit", id, commit, known)
		}
	}
	readBack(t, c, "x", 5, "B", "C")
	c.recover(t, "A")
	readBack(t, c, "x", 5, "A")
}

// TestWindowParticipantCrash: a participant crashes before the decision
// reaches it. The tail gives up without its ack (counted), the decision
// stays in the home's table, and the participant recovers in doubt and
// resolves to commit by asking the home.
func TestWindowParticipantCrash(t *testing.T) {
	for _, acp := range []string{"2pc", "3pc"} {
		t.Run(acp, func(t *testing.T) {
			c := newCluster(t, 3, schema.Protocols{RCP: "qc", CCP: "2pl", ACP: acp}, items())
			a := c.sites["A"]
			out := commitInWindow(t, c, "B")
			c.crash("B")
			c.net.Drop(nil)
			a.WaitTails()
			if got := a.Stats().TailsUnacked; got != 1 {
				t.Errorf("unacked tails at A = %d, want 1", got)
			}
			if commit, known := a.part.Decision(out.Tx); !known || !commit {
				t.Fatalf("home's decision table lost the unacked commit: (%v, %v)", commit, known)
			}

			c.recover(t, "B")
			if n := c.sites["B"].InDoubtCount(); n != 1 {
				t.Fatalf("B recovered with %d in-doubt transactions, want 1", n)
			}
			waitDecided(t, c, "B")
			if got, _ := c.sites["B"].Store().Get("x"); got.Value != 5 {
				t.Errorf("B's copy of x = %d after resolving, want 5", got.Value)
			}
			readBack(t, c, "x", 5, "A", "B", "C")
		})
	}
}

// TestWindowDroppedDecideCountsUnackedTail: a tail missing one ack is
// counted once, so a stuck tail shows in the stats, and tails that
// get every ack are not.
func TestWindowDroppedDecideCountsUnackedTail(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	a := c.sites["A"]
	commitInWindow(t, c, "B")
	c.waitTails()
	c.net.Drop(nil)
	if got := a.Stats().TailsUnacked; got != 1 {
		t.Fatalf("unacked tails = %d after a dropped Decide, want 1", got)
	}
	waitDecided(t, c, "B") // B asks A for the outcome
	if out := a.Execute(context.Background(), []model.Op{model.Write("y", 1)}); !out.Committed {
		t.Fatalf("write = %+v", out)
	}
	c.waitTails()
	if got := a.Stats().TailsUnacked; got != 1 {
		t.Errorf("unacked tails = %d after a fully acked commit, want still 1", got)
	}
}

// TestWindowLazyDecisionOnlyAfterReply: a decision sent after the reply
// (2PL) lets its participant force the record lazily; one a client still
// waits for (TSO, MVTSO) does not.
func TestWindowLazyDecisionOnlyAfterReply(t *testing.T) {
	for ccp, want := range map[string]bool{"2pl": true, "tso": false, "mvtso": false} {
		t.Run(ccp, func(t *testing.T) {
			c := newCluster(t, 3, schema.Protocols{RCP: "qc", CCP: ccp, ACP: "2pc"}, items())
			var mu sync.Mutex
			var lazy []bool
			c.net.Drop(func(env *wire.Envelope) bool { // observe, drop nothing
				var d wire.DecisionMsg
				if env.Kind == wire.KindDecision && !env.Reply && d.DecodeFrom(env.Payload) == nil {
					mu.Lock()
					lazy = append(lazy, d.Lazy)
					mu.Unlock()
				}
				return false
			})
			if out := c.sites["A"].Execute(context.Background(), []model.Op{model.Write("x", 5)}); !out.Committed {
				t.Fatalf("write = %+v", out)
			}
			c.waitTails()
			mu.Lock()
			defer mu.Unlock()
			if len(lazy) != 1 || lazy[0] != want {
				t.Errorf("decisions sent with lazy = %v, want [%v]", lazy, want)
			}
		})
	}
}

// TestReadYourWrites: a client's transaction that follows its committed
// write, homed at another site, reads the new value — possibly after
// aborting and retrying — and never the old one. Under 2PL the write
// replied before its phase 2; under TSO and MVTSO it replied after it, and
// TSO still rejects a reader whose home clock lags (its retry reads the new
// value). MVTSO instead serves such a reader the version current at its
// timestamp, so there the read may return the value the write replaced —
// but nothing older.
func TestReadYourWrites(t *testing.T) {
	for _, ccp := range []string{"2pl", "tso", "mvtso"} {
		for _, rcp := range []string{"qc", "rowa"} {
			t.Run(ccp+"-"+rcp, func(t *testing.T) {
				c := newCluster(t, 3, schema.Protocols{RCP: rcp, CCP: ccp, ACP: "2pc"}, waveItems)
				rng := rand.New(rand.NewSource(7))
				last := maps.Clone(waveItems)
				for i := 1; i <= 30; i++ {
					item := model.ItemID([]string{"w", "x", "y", "z"}[rng.Intn(4)])
					home := c.ids[i%3]
					val := int64(1000 + i)
					if out := execRetry(c.sites[home], model.Write(item, val)); !out.Committed {
						t.Fatalf("write %s=%d at %s never committed: %+v", item, val, home, out)
					}
					prev := last[item]
					last[item] = val
					reader := c.ids[(i+1+rng.Intn(2))%3]
					out := execRetry(c.sites[reader], model.Read(item))
					if out.Committed && (out.Reads[item] == val || ccp == "mvtso" && out.Reads[item] == prev) {
						continue
					}
					t.Fatalf("read of %s at %s after the write at %s = %+v, want %d", item, reader, home, out, val)
				}
			})
		}
	}
}

// TestReadYourWritesSplitAdds: under 2PL, concurrent blind adds to one hot
// item run split (lock-free) and reply before their phase 2. A client's read
// that follows its committed add, homed at another site, sees at least every
// delta committed before the read began.
func TestReadYourWritesSplitAdds(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	var committed atomic.Int64 // sum of deltas whose Execute returned committed
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				home := c.sites[c.ids[(w+i)%3]]
				if out := home.Execute(context.Background(), []model.Op{model.Add("x", 1)}); out.Committed {
					committed.Add(1)
				}
				if i%8 != 7 {
					continue
				}
				floor := 10 + committed.Load()
				out := execRetry(c.sites[c.ids[(w+i+1)%3]], model.Read("x"))
				if !out.Committed || out.Reads["x"] < floor {
					errs <- fmt.Errorf("read of x = %+v, want at least %d", out, floor)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var splitAdds uint64
	for _, id := range c.ids {
		splitAdds += c.sites[id].Stats().CCSplitAdds
	}
	if splitAdds == 0 {
		t.Error("no add ran split: the test covered only locked adds")
	}
	c.waitTails()
	readBack(t, c, "x", 10+committed.Load(), c.ids...)
}

// execRetry runs one operation as a one-shot transaction, retrying aborts
// a few times the way a client would.
func execRetry(s *Site, op model.Op) model.Outcome {
	var out model.Outcome
	for attempt := 0; attempt < 10; attempt++ {
		if out = s.Execute(context.Background(), []model.Op{op}); out.Committed {
			break
		}
	}
	return out
}

// TestCloseDrainsTails: Close waits for the home's in-flight commit tails,
// so after a burst of commits and a clean shutdown no site's WAL holds a
// prepared transaction without its decision, and every site reopens with
// nothing in doubt.
func TestCloseDrainsTails(t *testing.T) {
	c := newCluster(t, 3, schema.Protocols{RCP: "rowa", CCP: "2pl", ACP: "2pc"}, waveItems)
	a := c.sites["A"]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				item := model.ItemID([]string{"w", "x", "y", "z"}[w])
				a.Execute(context.Background(), []model.Op{model.Write(item, int64(100*w+i))})
			}
		}(w)
	}
	wg.Wait()
	// Only A coordinated, so closing it first must not strand its tails.
	for _, id := range c.ids {
		if err := c.sites[id].Close(); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[model.ItemID]int64)
	for _, id := range c.ids {
		old := c.sites[id]
		log := old.log.(*wal.MemoryLog)
		if err := log.Reopen(); err != nil {
			t.Fatal(err)
		}
		st, err := New(Config{ID: id, Net: c.net, Log: log, Catalog: old.Catalog()})
		if err != nil {
			t.Fatal(err)
		}
		c.sites[id] = st
		if n := st.InDoubtCount(); n != 0 {
			t.Errorf("%s reopened with %d prepared transactions lacking a decision", id, n)
		}
		for item := range waveItems {
			got, _ := st.Store().Get(item)
			if v, ok := want[item]; ok && v != got.Value {
				t.Errorf("%s: copy of %s = %d after reopening, another copy holds %d", id, item, got.Value, v)
			}
			want[item] = got.Value
		}
	}
}
