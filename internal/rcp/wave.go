package rcp

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/schema"
)

// WaveMode says how a wave ships its legs and which of them vote with their
// reply (see Wave).
type WaveMode uint8

const (
	// Ordered ships the legs one after another in site order, each site
	// waiting where its CCP must, and no leg votes: the commit protocol's own
	// vote round follows (3PC, whose votes precede its pre-commit round).
	Ordered WaveMode = iota
	// Voting ships the legs in order like Ordered; each remote leg of an
	// add-only wave votes with its reply, and so does the remote last leg of
	// a wave that writes (2PC: an add-only wave's rerun, any other wave).
	Voting
	// NoWait is a first attempt under 2PC. An add-only wave ships every leg
	// at once in no-wait mode, and each remote leg votes with its reply. Any
	// other wave ships as Voting, except that when the home's own leg would
	// sort last it runs first, and every remote leg ships after it in no-wait
	// mode (home-first). If a no-wait leg would have had to wait, Wave returns
	// ErrWouldBlock and the caller reruns the program, under a fresh
	// transaction, as Voting.
	NoWait
)

// Wave performs every operation of a one-shot program in one round trip per
// site instead of one per operation. The program's values are all known up
// front, so nothing forces the home site to wait for one operation's copies
// before asking for the next one's:
//
//  1. Plan. Each operation's first-round copy set — the sites perform would
//     ask first — is chosen up front, and the copy operations are grouped by
//     destination site.
//  2. Ship. Every site gets its group as ONE CopyBatch (the home site's own
//     group runs inline through its CCP).
//  3. Resolve. The operations are completed one by one in order through
//     perform, seeded with what the batches brought back: with every member
//     up that is pure bookkeeping; a member that failed to answer is replaced
//     by perform's ordinary replacement rounds for just that operation. A CC
//     rejection dooms the transaction exactly as it does op by op.
//
// Ordering rule: the operations are stable-sorted by item (program order is
// kept among operations on one item, which is all a program of constants can
// observe), every site's group inherits that order and is admitted there
// sequentially, and the groups are shipped one after another in site order.
// A wave therefore requests its locks in one global (site, item) order, so
// no set of waves can wait on each other in a cycle, at one site or across
// sites. Sites sharing a batch's wait is what this costs: a program touching
// k sites takes k-1 remote round trips (one under majority quorums of three,
// where the home site is one of the two), not one per operation.
//
// Cycle-freedom needs less than the order itself: a wave may wait only for a
// lock that sorts above every lock it holds in (site, item) order. A leg that
// never waits may go anywhere. Home-first uses this. Under 2PC, a first
// attempt (mode NoWait) that is not add-only and whose home leg would sort
// last among two or more legs runs that leg first, inline, where it may wait
// as usual: it holds nothing when it starts, and within the leg it waits only
// above the items it already holds there. Every remote leg then ships after
// it in site order with Leg.NoWait. Those legs sort below the home's and
// wrap around it, so none of them may wait, and one that would refuses with
// ErrWouldBlock. The caller reruns a refused attempt as Voting, in site order
// again. The last remote leg still folds or votes as below, so a wave whose
// home sorts last commits in the same rounds as one whose home does not.
//
// Add-only waves under 2PC (mode NoWait) skip the order: every leg ships at
// once and no site ever waits for it — an operation that would have to wait
// makes its site release what the transaction holds there and refuse the leg
// with ErrWouldBlock. A transaction that never waits while it holds a lock
// cannot be part of a wait cycle, so the order has nothing left to prevent.
// Each remote leg also votes with its reply (Leg.Vote): an add's effect at a
// site depends on nothing outside that site — no read to keep protected until
// a lock point, no install version the whole quorum must agree on — so once
// its adds are admitted the site can prepare at once, and the commit protocol
// asks only the home. A refused attempt is the caller's to abandon and rerun
// as Voting: ordered and waiting like any wave, its remote legs still voting.
// Waves with a read or an absolute write keep the order: a read must stay
// protected until the lock point, and a write's install version spans the
// quorum.
//
// The last leg is special when it is remote and every earlier leg answered
// cleanly. Its admission is then the transaction's lock point — it already
// holds every other lock, and no replacement round can follow — so it may
// carry what the commit protocol would otherwise ask for in a round of its
// own:
//
//   - Read-only fold: a leg that carries no write (of a read-only program,
//     or of one that writes under 2PC) goes out marked final. The site may
//     release right after admitting it, which is all a read-only vote would
//     have done; it runs the vote's guards first. A released site leaves the
//     session: it takes no part in the commit protocol.
//   - Last-leg vote: under 2PC, a leg of a wave that writes, carrying a write
//     or an add, votes with its reply (Leg.Vote). What stopped such a leg
//     from voting is the install version, which spans the quorum: perform
//     installs a write at one more than the highest version any member
//     reported. Every other member already answered, so the leg carries, per
//     operation, the highest version they reported (Leg.Floors), and the
//     site prepares its writes at max(floor, own)+1 — exactly the version
//     perform computes at the home.
//
// Only the last leg may fold or vote. An earlier leg's site may crash and
// recover before the lock point — a writer could then slip under a lost read
// lock, and only the commit protocol's incarnation fence catches that — and
// an earlier leg cannot know the versions of the legs after it.
//
// A voting leg that gets no reply may have voted anyway: its site may be
// prepared, holding a write set. So no replacement round may complete the
// quorum without it; Wave returns a VoteLostError instead, after recording
// the site as voted so that abandoning the attempt withdraws it, and the
// caller reruns the program under a fresh transaction with the site avoided
// in the first round (Session.Avoid).
//
// items resolves each operation's item; the caller has checked that every
// item is present. Wave returns the value of each item read.
func (p Protocol) Wave(ctx context.Context, acc CopyAccess, sess *Session, items map[model.ItemID]schema.ItemMeta, ops []model.Op, mode WaveMode) (map[model.ItemID]int64, error) {
	readOnly := !slices.ContainsFunc(ops, func(op model.Op) bool { return op.Kind != model.OpRead })
	addOnly := !slices.ContainsFunc(ops, func(op model.Op) bool { return op.Kind != model.OpAdd })
	// homeFirst: a first 2PC attempt that is not add-only runs its home's leg
	// first when that leg would sort last (decided once the legs are sorted).
	homeFirst := !addOnly && mode == NoWait
	if homeFirst {
		mode = Voting
	}
	var avoid map[model.SiteID]bool
	if sess.Avoid != "" {
		avoid = map[model.SiteID]bool{sess.Avoid: true}
	}
	ops = slices.Clone(ops)
	slices.SortStableFunc(ops, func(a, b model.Op) int { return strings.Compare(string(a.Item), string(b.Item)) })

	// leg is one site's share of the wave: which operations (indices into
	// ops) go there.
	type leg struct {
		site model.SiteID
		idx  []int
		ops  []model.Op
	}
	var legs []*leg
	seeds := make([][]outcome, len(ops))
	// complete: every operation's first round is a whole quorum, so no
	// replacement round follows a clean wave. Only an avoided site can make
	// it partial.
	complete := true
	for k, op := range ops {
		meta := items[op.Item]
		assignment, need := p.rule(sess, op.Kind, meta)
		first, ok := assignment.Pick(need, preferredOrder(acc, meta), avoid)
		complete = complete && ok
		seeds[k] = make([]outcome, 0, len(first))
		for _, site := range first {
			j := slices.IndexFunc(legs, func(l *leg) bool { return l.site == site })
			if j < 0 {
				j = len(legs)
				legs = append(legs, &leg{site: site})
			}
			legs[j].idx = append(legs[j].idx, k)
			legs[j].ops = append(legs[j].ops, op)
		}
	}
	slices.SortFunc(legs, func(a, b *leg) int { return strings.Compare(string(a.site), string(b.site)) })

	var cohort []model.SiteID
	if mode != Ordered {
		cohort = make([]model.SiteID, len(legs))
		for i, l := range legs {
			cohort[i] = l.site
		}
	}
	homeFirst = homeFirst && len(legs) > 1 && legs[len(legs)-1].site == acc.Local()
	if homeFirst {
		legs = slices.Concat(legs[len(legs)-1:], legs[:len(legs)-1])
		sess.HomeFirst = true
	}
	// legOf says how leg i ships by default (see last for the last leg);
	// take records its reply in the seeds and the session, reporting whether
	// every operation succeeded and the first CC abort.
	legOf := func(i int) Leg {
		return Leg{
			NoWait: mode == NoWait || homeFirst && legs[i].site != acc.Local(),
			Vote:   addOnly && mode != Ordered && legs[i].site != acc.Local(),
			Cohort: cohort,
		}
	}
	// last marks the final leg to fold or vote; every earlier leg answered
	// cleanly, so its seeds hold each operation's versions from them.
	last := func(lg *Leg, l *leg) {
		switch {
		case readOnly:
			lg.Final = true
		case addOnly || mode != Voting:
			// 3PC keeps its vote round; an add-only leg votes already.
		case !slices.ContainsFunc(l.ops, func(op model.Op) bool { return op.Kind != model.OpRead }):
			lg.Final = true
		default:
			lg.Vote = true
			lg.Floors = make([]model.Version, len(l.idx))
			for j, k := range l.idx {
				for _, o := range seeds[k] {
					lg.Floors[j] = max(lg.Floors[j], o.Version)
				}
			}
		}
	}
	// lost reports a voting leg that got no answer (see VoteLostError).
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
			sess.Vote(l.site)
		}
		clean = true
		for j, k := range l.idx {
			o := outcome{site: l.site, inc: rep.Incarnation}
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
	if mode == NoWait {
		reps := make([]BatchReply, len(legs))
		errs := make([]error, len(legs))
		var wg sync.WaitGroup
		local := -1
		for i, l := range legs {
			sess.Attempt(l.site)
			if l.site == acc.Local() {
				local = i // runs inline, while the remote legs travel
				continue
			}
			wg.Add(1)
			go func(l *leg, lg Leg, rep *BatchReply, err *error) {
				defer wg.Done()
				*rep, *err = acc.CopyBatch(ctx, l.site, sess, l.ops, lg)
			}(l, legOf(i), &reps[i], &errs[i])
		}
		if local >= 0 {
			l := legs[local]
			reps[local], errs[local] = acc.CopyBatch(ctx, l.site, sess, l.ops, legOf(local))
		}
		wg.Wait()
		blocked := false
		var ccErr, lostErr error
		for i, l := range legs {
			if errors.Is(errs[i], ErrWouldBlock) {
				blocked = true
				continue
			}
			if err := lost(legOf(i), l.site, errs[i]); err != nil {
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
			lg := legOf(i)
			if i == len(legs)-1 && clean && complete && l.site != acc.Local() {
				last(&lg, l)
			}
			sess.Attempt(l.site)
			rep, err := acc.CopyBatch(ctx, l.site, sess, l.ops, lg)
			if err := lost(lg, l.site, err); err != nil {
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
				released = l.site
			}
		}
	}

	reads := make(map[model.ItemID]int64)
	for k, op := range ops {
		v, err := p.perform(ctx, acc, sess, items[op.Item], op, seeds[k])
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
