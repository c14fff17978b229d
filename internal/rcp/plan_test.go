package rcp

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/schema"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// programs returns every program of up to n operations over waveItems' items,
// leaving out those that blind-add an item they also read or write (the home
// rejects them before any wave). Writes and adds carry their position as
// their value.
func programs(n int) [][]model.Op {
	var kinds []model.Op
	for _, item := range []model.ItemID{"a", "b", "c"} {
		kinds = append(kinds, model.Read(item), model.Write(item, 0), model.Add(item, 0))
	}
	out := [][]model.Op{{}}
	for prev := out; n > 0; n-- {
		var next [][]model.Op
		for _, p := range prev {
			for _, op := range kinds {
				op.Value = int64(len(p) + 1)
				if op.Kind == model.OpRead {
					op.Value = 0
				}
				q := append(slices.Clone(p), op)
				if !mixesAddAndAccess(q) {
					next = append(next, q)
				}
			}
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

func mixesAddAndAccess(ops []model.Op) bool {
	for _, a := range ops {
		for _, b := range ops {
			if a.Item == b.Item && a.Kind == model.OpAdd && b.Kind != model.OpAdd {
				return true
			}
		}
	}
	return false
}

// waveHow is how the home plans a wave: under 2PC or 3PC, as which attempt,
// and avoiding which site.
type waveHow struct {
	name       string
	threePhase bool
	attempt    Attempt
	avoid      model.SiteID
}

var (
	first2PC = waveHow{"2pc-first", false, FirstAttempt, ""}
	rerun2PC = waveHow{"2pc-rerun", false, Rerun, ""}
	threePC  = waveHow{"3pc", true, FirstAttempt, ""}
	// waveAttempts is every way the home may ship a program: under 2PC as a
	// first attempt or as a rerun (avoiding a site, after a lost vote), or
	// under 3PC.
	waveAttempts = []waveHow{first2PC, rerun2PC, rerun2PC.avoiding("S2"), threePC}
)

// avoiding is h with site left out of the first round.
func (h waveHow) avoiding(site model.SiteID) waveHow {
	h.name, h.avoid = h.name+"-avoid-"+string(site), site
	return h
}

func (h waveHow) String() string { return h.name }

// plan plans ops as h says, from f's home.
func (h waveHow) plan(p Protocol, f *fakeAccess, items map[model.ItemID]schema.ItemMeta, ops []model.Op) Plan {
	return p.Plan(ops, f.local, items, h.avoid, h.threePhase, h.attempt)
}

// wave runs ops as one wave of p over f, planned as h says.
func wave(p Protocol, f *fakeAccess, s *Session, items map[model.ItemID]schema.ItemMeta, ops []model.Op, h waveHow) (map[model.ItemID]int64, error) {
	return p.Wave(context.Background(), f, s, h.plan(p, f, items, ops))
}

// shipWave plans program as a says and runs it as one wave of p at home over
// a fresh fake whose sites S1, S2 and S3 report versions 1, 2 and 3.
func shipWave(t *testing.T, p Protocol, home model.SiteID, program []model.Op, a waveHow) (*fakeAccess, Plan) {
	t.Helper()
	f := newFake(home, "S1", "S2", "S3")
	for i, site := range []model.SiteID{"S1", "S2", "S3"} {
		f.set(site, 10, model.Version(i+1))
	}
	s := sess()
	plan := a.plan(p, f, waveItems(), program)
	if _, err := p.Wave(context.Background(), f, s, plan); err != nil {
		t.Fatalf("%s home %s %s %v: %v", p.Name(), home, a, program, err)
	}
	return f, plan
}

// TestWaveLegsGolden pins every batch the home ships, in ship order, for
// every program of up to two operations × home × protocol × attempt: its
// site, operations and Leg. A wave whose legs all ship at once is listed by
// site, since they arrive in no set order.
func TestWaveLegsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range []Protocol{QC, ROWA} {
		for _, home := range []model.SiteID{"S1", "S2", "S3"} {
			for _, a := range waveAttempts {
				for _, program := range programs(2) {
					f, plan := shipWave(t, p, home, program, a)
					shipped := f.shipped
					atOnce := len(shipped) > 0 && !slices.ContainsFunc(shipped, func(b shipment) bool { return !b.leg.NoWait })
					fmt.Fprintf(&out, "%s %s %v %v", p.Name(), home, a, program)
					if atOnce {
						out.WriteString(" at-once")
						slices.SortFunc(shipped, func(x, y shipment) int { return strings.Compare(string(x.site), string(y.site)) })
					}
					if plan.Count == monitor.HomeFirstWaves {
						out.WriteString(" home-first")
					}
					out.WriteByte('\n')
					for _, b := range shipped {
						fmt.Fprintf(&out, "\t%s %v", b.site, b.ops)
						for _, flag := range []struct {
							on   bool
							name string
						}{{b.leg.NoWait, "no-wait"}, {b.leg.Vote, "vote"}, {b.leg.Final, "final"}} {
							if flag.on {
								out.WriteString(" " + flag.name)
							}
						}
						if b.leg.Floors != nil {
							fmt.Fprintf(&out, " floors=%v", b.leg.Floors)
						}
						if b.leg.Cohort != nil {
							fmt.Fprintf(&out, " cohort=%v", b.leg.Cohort)
						}
						out.WriteByte('\n')
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "wave_legs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("the legs shipped differ from %s; diff the output of -update against git to see how", path)
	}
}

// planned is one program planned one way, and its legs as shipped over the
// fake (replacement rounds left out).
type planned struct {
	a       waveHow
	addOnly bool
	plan    Plan
	legs    []shipment
}

// eachPlan plans and ships every program of up to three operations × home ×
// protocol × attempt, and reports each that check finds at fault.
func eachPlan(t *testing.T, check func(c planned) string) {
	t.Helper()
	failures := 0
	for _, p := range []Protocol{QC, ROWA} {
		for _, home := range []model.SiteID{"S1", "S2", "S3"} {
			for _, a := range waveAttempts {
				for _, program := range programs(3) {
					f, plan := shipWave(t, p, home, program, a)
					addOnly := len(program) > 0 && !slices.ContainsFunc(program, func(op model.Op) bool { return op.Kind != model.OpAdd })
					if fault := check(planned{a, addOnly, plan, f.shipped[:len(plan.Legs)]}); fault != "" {
						t.Errorf("%s home %s %v %v: %s", p.Name(), home, a, program, fault)
						if failures++; failures == 5 {
							t.FailNow()
						}
					}
				}
			}
		}
	}
}

// TestPlanWaitingLegSortsAbove: a leg that may wait sorts above every site
// shipped before it, and a wave shipped at once has no such leg, so no set of
// waves can wait on each other in a cycle.
func TestPlanWaitingLegSortsAbove(t *testing.T) {
	eachPlan(t, func(c planned) string {
		for i, l := range c.plan.Legs {
			if l.NoWait {
				continue
			}
			if c.plan.AtOnce {
				return fmt.Sprintf("%s may wait in a wave shipped at once", l.Site)
			}
			for _, before := range c.plan.Legs[:i] {
				if before.Site >= l.Site {
					return fmt.Sprintf("%s may wait after %s", l.Site, before.Site)
				}
			}
		}
		return ""
	})
}

// TestPlanOnlyLastLegFoldsOrVotes: unless the wave is add-only, only its last
// leg folds or votes, and only when remote.
func TestPlanOnlyLastLegFoldsOrVotes(t *testing.T) {
	eachPlan(t, func(c planned) string {
		for i, b := range c.legs {
			if !c.addOnly && (b.leg.Final || b.leg.Vote) && (i != len(c.legs)-1 || b.site == c.plan.Home) {
				return fmt.Sprintf("leg %d of %d at %s folds or votes", i+1, len(c.legs), b.site)
			}
		}
		return ""
	})
}

// TestPlanReadVotesOnlyLast: a leg that carries a read votes only as the last
// leg, at the lock point.
func TestPlanReadVotesOnlyLast(t *testing.T) {
	eachPlan(t, func(c planned) string {
		for i, b := range c.legs {
			reads := slices.ContainsFunc(b.ops, func(op model.Op) bool { return op.Kind == model.OpRead })
			if reads && b.leg.Vote && i != len(c.legs)-1 {
				return fmt.Sprintf("leg %d of %d at %s reads and votes", i+1, len(c.legs), b.site)
			}
		}
		return ""
	})
}

// TestPlanRerunNeverNoWait: a rerun plans no no-wait leg, so nothing can
// refuse it, and nothing follows it.
func TestPlanRerunNeverNoWait(t *testing.T) {
	eachPlan(t, func(c planned) string {
		if c.a.attempt != Rerun {
			return ""
		}
		if slices.ContainsFunc(c.plan.Legs, func(l LegPlan) bool { return l.NoWait }) {
			return "a no-wait leg"
		}
		if c.plan.OnRefuse != (Next{}) || c.plan.OnLost != (Next{}) {
			return fmt.Sprintf("followed by %+v or %+v", c.plan.OnRefuse, c.plan.OnLost)
		}
		return ""
	})
}

// TestPlanThreePCNoVote: under 3PC no leg votes with its reply: the commit
// protocol's own votes precede its pre-commit round.
func TestPlanThreePCNoVote(t *testing.T) {
	eachPlan(t, func(c planned) string {
		if c.a.threePhase && (c.plan.Last == LastVote || slices.ContainsFunc(c.legs, func(b shipment) bool { return b.leg.Vote })) {
			return "a leg votes"
		}
		return ""
	})
}

// TestPlanPaths: one program per path, with the counter its wave moves and
// what follows a refused leg or a lost vote.
func TestPlanPaths(t *testing.T) {
	rw := []model.Op{model.Read("a"), model.Write("b", 1)}
	// c has its one copy at S3 and d at S1: a program that reads c and writes
	// d ships its write first, and its last leg carries no write.
	split := map[model.ItemID]schema.ItemMeta{
		"c": {Item: "c", Votes: map[model.SiteID]int{"S3": 1}, ReadQuorum: 1, WriteQuorum: 1},
		"d": {Item: "d", Votes: map[model.SiteID]int{"S1": 1}, ReadQuorum: 1, WriteQuorum: 1},
	}
	refusedAdd, refusedHomeFirst := Next{Rerun, monitor.AddWaveReruns}, Next{Rerun, monitor.HomeFirstReruns}
	lost := Next{Rerun, monitor.VoteLostReruns}
	for _, c := range []struct {
		name     string
		p        Protocol
		home     model.SiteID
		items    map[model.ItemID]schema.ItemMeta
		ops      []model.Op
		how      waveHow
		path     Path
		last     LastLeg
		count    monitor.Count
		onRefuse Next
		onLost   Next
	}{
		{"read-only", QC, "S1", nil, []model.Op{model.Read("a"), model.Read("b")}, first2PC, PathReadOnly, LastFold, 0, Next{}, Next{}},
		{"read-only-home-first", QC, "S3", nil, []model.Op{model.Read("a")}, first2PC, PathReadOnly, LastFold, monitor.HomeFirstWaves, refusedHomeFirst, Next{}},
		{"read-only-3pc", QC, "S1", nil, []model.Op{model.Read("a")}, threePC, PathReadOnly, LastFold, 0, Next{}, Next{}},
		{"add-at-once", QC, "S1", nil, []model.Op{model.Add("a", 1)}, first2PC, PathAddAtOnce, LastPlain, monitor.AddWaves, refusedAdd, lost},
		{"add-ordered", QC, "S1", nil, []model.Op{model.Add("a", 1)}, rerun2PC, PathAddOrdered, LastPlain, 0, Next{}, Next{}},
		{"last-leg-vote", QC, "S1", nil, rw, first2PC, PathLastLegVote, LastVote, 0, Next{}, lost},
		{"last-leg-vote-home-first", QC, "S3", nil, rw, first2PC, PathLastLegVote, LastVote, monitor.HomeFirstWaves, refusedHomeFirst, lost},
		{"avoid", QC, "S1", nil, rw, rerun2PC.avoiding("S2"), PathAvoid, LastVote, 0, Next{}, Next{}},
		{"avoid-partial", ROWA, "S1", nil, rw, rerun2PC.avoiding("S2"), PathAvoid, LastPlain, 0, Next{}, Next{}},
		{"prepare-home-last", QC, "S3", nil, rw, rerun2PC, PathPrepare, LastPlain, 0, Next{}, Next{}},
		{"prepare-3pc", QC, "S1", nil, rw, threePC, PathPrepare, LastPlain, 0, Next{}, Next{}},
		{"prepare-fold-after-writes", ROWA, "S2", split, []model.Op{model.Read("c"), model.Write("d", 1)}, rerun2PC, PathPrepare, LastFold, 0, Next{}, Next{}},
	} {
		items := c.items
		if items == nil {
			items = waveItems()
		}
		plan := c.how.plan(c.p, newFake(c.home), items, c.ops)
		if plan.Path != c.path || plan.Last != c.last || plan.Count != c.count || plan.OnRefuse != c.onRefuse || plan.OnLost != c.onLost {
			t.Errorf("%s: path %d, last %d, count %d, on refuse %+v, on lost %+v; want %d, %d, %d, %+v, %+v",
				c.name, plan.Path, plan.Last, plan.Count, plan.OnRefuse, plan.OnLost, c.path, c.last, c.count, c.onRefuse, c.onLost)
		}
	}
}
