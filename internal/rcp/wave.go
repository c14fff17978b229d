package rcp

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/schema"
)

// Attempt numbers the tries of one one-shot program: the first, and at most
// one rerun under a fresh transaction after the first was abandoned.
type Attempt uint8

const (
	FirstAttempt Attempt = iota + 1
	Rerun
)

// Path names how a wave's transaction commits when every leg answers
// cleanly. Two of them are optimisations catalogued by Samaras, Britton,
// Citron and Mohan, "Two-phase commit optimizations in a commercial
// distributed environment" (1995): the read-only optimisation, and the
// unsolicited vote, a vote cast with a leg's reply (Leg.Vote) so that the
// commit protocol asks only the home.
type Path uint8

const (
	// PathReadOnly: the last leg of a read-only wave is remote and folds the
	// site's read-only vote into its reply (Leg.Final); the site releases as
	// it answers and leaves the commit.
	PathReadOnly Path = iota + 1
	// PathAddAtOnce: a first 2PC attempt of an add-only program ships every
	// leg at once without waiting (Leg.NoWait), and every remote leg casts an
	// unsolicited vote.
	PathAddAtOnce
	// PathAddOrdered: a 2PC rerun of an add-only program ships its legs in
	// site order, waiting where they must; every remote leg still votes.
	PathAddOrdered
	// PathLastLegVote: under 2PC the remote last leg of a wave that writes
	// casts an unsolicited vote, prepared at the versions its floors imply
	// (Leg.Floors), and the home forces its own prepare with the decision.
	PathLastLegVote
	// PathAvoid: a rerun after a voting leg got no reply, that site left out
	// of the first round (Plan's avoid).
	PathAvoid
	// PathPrepare: no leg votes, and the commit protocol's prepare round
	// asks every participant left: 3PC waves that write, waves whose home's
	// own leg ships last (the rerun of a refused home-first attempt), and
	// waves whose last leg folds but whose other legs write.
	PathPrepare
)

// LastLeg says what a wave's last leg carries when every earlier leg answered
// cleanly. Its admission is then the transaction's lock point, so it may do
// what the commit protocol would otherwise ask of its site in a round of its
// own. An earlier leg may not: its site could crash and recover before the
// lock point, and it cannot know the versions of the legs after it.
type LastLeg uint8

const (
	// LastPlain ships it as planned.
	LastPlain LastLeg = iota
	// LastFold marks it Final: it carries no write.
	LastFold
	// LastVote makes it vote, carrying per operation the highest version the
	// earlier legs reported as its floors; the site prepares each write at
	// max(floor, own)+1, the version perform computes at the home.
	LastVote
)

// Next is what follows an attempt that a no-wait leg refused or whose voting
// leg got no reply: the program reruns as attempt Attempt, counted in Count.
// The zero Next aborts.
type Next struct {
	Attempt Attempt
	Count   monitor.Count
}

// LegPlan is one site's share of a wave and how it ships.
type LegPlan struct {
	Site model.SiteID
	// Idx holds the indices into Plan.Ops of the operations the leg carries,
	// and Ops those operations, in order.
	Idx []int
	Ops []model.Op
	// Leg sets NoWait, Vote and Cohort; Wave adds what Plan.Last says to the
	// last leg.
	Leg
}

// Plan is how a wave ships one one-shot program: the data Wave executes.
type Plan struct {
	Home model.SiteID
	// Ops is the program stable-sorted by item; Items describes their items.
	Ops   []model.Op
	Items map[model.ItemID]schema.ItemMeta
	// Legs lists each site's share in ship order. AtOnce ships them all at
	// once, none waiting for another.
	Legs   []LegPlan
	AtOnce bool
	// Last applies to the last leg if it is remote and every operation's
	// first round is a whole quorum (else it is LastPlain).
	Last LastLeg
	Path Path
	// Count is the counter the wave moves when it ships (zero: none);
	// OnRefuse and OnLost say what follows a refused leg and a lost vote.
	Count    monitor.Count
	OnRefuse Next
	OnLost   Next
}

// Plan decides how a wave ships a one-shot program from home: each
// operation's first-round copy set — the sites perform would ask first, with
// avoid left out — and from those the legs, the path and what follows a
// refusal. It is a pure function of its arguments.
//
// A wave requests its locks in one global (site, item) order, so no set of
// waves can wait on each other in a cycle: the operations are stable-sorted
// by item (program order is kept among operations on one item, which is all
// a program of constants can observe), every leg inherits that order and is
// admitted sequentially, and the legs ship in site order. Cycle-freedom needs
// only that a wave wait for no lock below one it holds, and a leg that never
// waits may go anywhere. So a first 2PC attempt of an add-only program ships
// every leg at once, none waiting; one of any other program whose home's own
// leg would ship last runs that leg first (home-first), where it holds
// nothing yet, and every remote leg after it without waiting. A no-wait leg
// that would have had to wait refuses (ErrWouldBlock), and the program reruns
// as an ordered wave.
//
// Under 2PC a remote leg of an add-only wave votes with its reply: an add's
// effect at a site depends on nothing outside that site, so the site can
// prepare as soon as its adds are admitted. A read must stay protected until
// the lock point and a write's install version spans the quorum, so any
// other wave leaves its vote to the last leg.
func (p Protocol) Plan(ops []model.Op, home model.SiteID, items map[model.ItemID]schema.ItemMeta, avoid model.SiteID, threePhase bool, attempt Attempt) Plan {
	readOnly := !slices.ContainsFunc(ops, func(op model.Op) bool { return op.Kind != model.OpRead })
	addOnly := len(ops) > 0 && !slices.ContainsFunc(ops, func(op model.Op) bool { return op.Kind != model.OpAdd })
	first2PC := !threePhase && attempt == FirstAttempt
	plan := Plan{Home: home, Ops: slices.Clone(ops), Items: items, AtOnce: addOnly && first2PC}
	slices.SortStableFunc(plan.Ops, func(a, b model.Op) int { return strings.Compare(string(a.Item), string(b.Item)) })

	var skip map[model.SiteID]bool
	if avoid != "" {
		skip = map[model.SiteID]bool{avoid: true}
	}
	complete := true // only an avoided site can leave a first round partial
	for k, op := range plan.Ops {
		meta := items[op.Item]
		assignment, need := p.rule(nil, op.Kind, meta)
		first, ok := assignment.Pick(need, preferredOrder(home, meta), skip)
		complete = complete && ok
		for _, site := range first {
			j := slices.IndexFunc(plan.Legs, func(l LegPlan) bool { return l.Site == site })
			if j < 0 {
				j = len(plan.Legs)
				plan.Legs = append(plan.Legs, LegPlan{Site: site})
			}
			plan.Legs[j].Idx = append(plan.Legs[j].Idx, k)
			plan.Legs[j].Ops = append(plan.Legs[j].Ops, op)
		}
	}
	legs := plan.Legs
	slices.SortFunc(legs, func(a, b LegPlan) int { return strings.Compare(string(a.Site), string(b.Site)) })
	var cohort []model.SiteID
	if !threePhase {
		cohort = make([]model.SiteID, len(legs))
		for i, l := range legs {
			cohort[i] = l.Site
		}
	}
	homeFirst := first2PC && !addOnly && len(legs) > 1 && legs[len(legs)-1].Site == home
	if homeFirst {
		h := legs[len(legs)-1]
		copy(legs[1:], legs[:len(legs)-1])
		legs[0] = h
	}
	for i := range legs {
		remote := legs[i].Site != home
		legs[i].NoWait = plan.AtOnce || homeFirst && remote
		legs[i].Vote = addOnly && !threePhase && remote
		legs[i].Cohort = cohort
	}

	plan.Path = PathPrepare
	if n := len(legs); n > 0 && complete && legs[n-1].Site != home {
		switch {
		case readOnly:
			plan.Last, plan.Path = LastFold, PathReadOnly
		case addOnly || threePhase:
			// An add-only leg votes already; 3PC keeps its vote round.
		case !slices.ContainsFunc(legs[n-1].Ops, func(op model.Op) bool { return op.Kind != model.OpRead }):
			plan.Last = LastFold // the prepare round still asks the legs that write
		default:
			plan.Last, plan.Path = LastVote, PathLastLegVote
		}
	}
	switch {
	case avoid != "":
		plan.Path = PathAvoid
	case plan.AtOnce:
		plan.Path = PathAddAtOnce
	case addOnly && !threePhase:
		plan.Path = PathAddOrdered
	}
	switch {
	case plan.AtOnce:
		plan.Count, plan.OnRefuse = monitor.AddWaves, Next{Rerun, monitor.AddWaveReruns}
	case homeFirst:
		plan.Count, plan.OnRefuse = monitor.HomeFirstWaves, Next{Rerun, monitor.HomeFirstReruns}
	}
	if first2PC && (plan.Last == LastVote || slices.ContainsFunc(legs, func(l LegPlan) bool { return l.Vote })) {
		plan.OnLost = Next{Rerun, monitor.VoteLostReruns}
	}
	return plan
}

// Wave performs every operation of a one-shot program in one round trip per
// site instead of one per operation, as plan says: every site gets its leg as
// ONE CopyBatch (the home's own leg runs inline through its CCP). Then the
// operations are completed one by one in order through perform, seeded with
// what the legs brought back: with every member up that is pure bookkeeping;
// a member that failed to answer is replaced by perform's ordinary
// replacement rounds for just that operation. A CC rejection dooms the
// transaction exactly as it does op by op.
//
// A voting leg that gets no reply may have voted anyway: its site may be
// prepared, holding a write set. So no replacement round may complete the
// quorum without it; Wave returns a VoteLostError instead, after recording
// the site as voted so that abandoning the attempt withdraws it.
//
// The caller has checked that every item is in plan.Items. Wave returns the
// value of each item read.
func (p Protocol) Wave(ctx context.Context, acc CopyAccess, sess *Session, plan Plan) (map[model.ItemID]int64, error) {
	legs := plan.Legs
	seeds := make([][]outcome, len(plan.Ops))
	for k := range seeds {
		seeds[k] = make([]outcome, 0, len(legs))
	}
	// lost reports a voting leg that got no answer (see VoteLostError); take
	// records a leg's reply in the seeds and the session, reporting whether
	// every operation succeeded and the first CC abort.
	lost := func(lg Leg, site model.SiteID, err error) error {
		if !lg.Vote || err == nil || isCC(err) {
			return nil
		}
		sess.Vote(site)
		return &VoteLostError{Site: site, Err: err}
	}
	take := func(i int, rep BatchReply, err error) (clean bool, ccErr error) {
		l := legs[i]
		if rep.Voted {
			sess.Vote(l.Site)
		}
		clean = true
		for j, k := range l.Idx {
			o := outcome{site: l.Site, inc: rep.Incarnation}
			if err != nil {
				o.Err = err
			} else {
				o.CopyResult = rep.Results[j]
			}
			if isCC(o.Err) && ccErr == nil {
				ccErr = o.Err
			}
			clean = clean && o.Err == nil
			seeds[k] = append(seeds[k], o)
		}
		return clean, ccErr
	}

	var released model.SiteID
	if plan.AtOnce {
		reps := make([]BatchReply, len(legs))
		errs := make([]error, len(legs))
		var wg sync.WaitGroup
		local := -1
		for i, l := range legs {
			sess.Attempt(l.Site)
			if l.Site == plan.Home {
				local = i // runs inline, while the remote legs travel
				continue
			}
			wg.Add(1)
			go func(l LegPlan, rep *BatchReply, err *error) {
				defer wg.Done()
				*rep, *err = acc.CopyBatch(ctx, l.Site, sess, l.Ops, l.Leg)
			}(l, &reps[i], &errs[i])
		}
		if local >= 0 {
			l := legs[local]
			reps[local], errs[local] = acc.CopyBatch(ctx, l.Site, sess, l.Ops, l.Leg)
		}
		wg.Wait()
		blocked := false
		var ccErr, lostErr error
		for i, l := range legs {
			if errors.Is(errs[i], ErrWouldBlock) {
				blocked = true
				continue
			}
			if err := lost(l.Leg, l.Site, errs[i]); err != nil {
				lostErr = cmp.Or(lostErr, err)
				continue
			}
			if _, err := take(i, reps[i], errs[i]); err != nil && ccErr == nil {
				ccErr = err
			}
		}
		// Every site asked is on the session's attempted list and gets
		// released; every site that voted, withdrawn.
		if ccErr != nil {
			return nil, ccErr
		}
		if lostErr != nil {
			return nil, lostErr
		}
		if blocked {
			return nil, ErrWouldBlock
		}
	} else {
		clean := true // every leg so far answered and admitted all its ops
		for i, l := range legs {
			lg := l.Leg
			if i == len(legs)-1 && clean {
				switch plan.Last {
				case LastFold:
					lg.Final = true
				case LastVote:
					// Every earlier leg answered cleanly, so the seeds hold
					// each operation's versions from them.
					lg.Vote = true
					lg.Floors = make([]model.Version, len(l.Idx))
					for j, k := range l.Idx {
						for _, o := range seeds[k] {
							lg.Floors[j] = max(lg.Floors[j], o.Version)
						}
					}
				}
			}
			sess.Attempt(l.Site)
			rep, err := acc.CopyBatch(ctx, l.Site, sess, l.Ops, lg)
			if err := lost(lg, l.Site, err); err != nil {
				return nil, err
			}
			ok, ccErr := take(i, rep, err)
			if ccErr != nil {
				// Doomed: ask nothing more of anyone. Every site asked so far
				// is on the session's attempted list and gets released.
				return nil, ccErr
			}
			clean = clean && ok
			if rep.Released {
				released = l.Site
			}
		}
	}

	reads := make(map[model.ItemID]int64)
	for k, op := range plan.Ops {
		v, err := p.perform(ctx, acc, sess, plan.Items[op.Item], op, seeds[k])
		if err != nil {
			return nil, err
		}
		if op.Kind == model.OpRead {
			reads[op.Item] = v
		}
	}
	if released != "" {
		sess.Release(released)
	}
	return reads, nil
}
