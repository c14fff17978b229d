package rcp

import (
	"context"
	"slices"
	"strings"

	"repro/internal/model"
	"repro/internal/schema"
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
// Read-only fold: when the program only reads and the last leg is remote,
// that leg goes out marked final, and only if every earlier leg answered
// cleanly. Under 2PL the last leg's admission is then the transaction's lock
// point — it already holds every other lock, and no replacement round can
// follow — so the site may release right after it, which is all a read-only
// vote would have done; the site runs the vote's guards first. A released
// site leaves the session: it takes no part in the commit protocol. Only the
// last leg may fold. An earlier leg keeps its vote, because its site may
// crash and recover before the lock point — a writer could then slip under
// the lost read lock, and only the vote's incarnation fence catches that.
//
// items resolves each operation's item; the caller has checked that every
// item is present. Wave returns the value of each item read.
func (p Protocol) Wave(ctx context.Context, acc CopyAccess, sess *Session, items map[model.ItemID]schema.ItemMeta, ops []model.Op) (map[model.ItemID]int64, error) {
	readOnly := !slices.ContainsFunc(ops, func(op model.Op) bool { return op.Kind != model.OpRead })
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
	for k, op := range ops {
		meta := items[op.Item]
		assignment, need := p.rule(sess, op.Kind, meta)
		first, _ := assignment.Pick(need, preferredOrder(acc, meta), nil)
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

	clean := true // every leg so far answered and admitted all its ops
	var released model.SiteID
	for i, l := range legs {
		final := readOnly && clean && i == len(legs)-1 && l.site != acc.Local()
		sess.Attempt(l.site)
		rep, err := acc.CopyBatch(ctx, l.site, sess, l.ops, final)
		for j, k := range l.idx {
			o := outcome{site: l.site, inc: rep.Incarnation}
			if err != nil {
				o.Err = err
			} else {
				o.CopyResult = rep.Results[j]
			}
			if isCC(o.Err) {
				// Doomed: ask nothing more of anyone. Every site asked so far
				// is on the session's attempted list and gets released.
				return nil, o.Err
			}
			clean = clean && o.Err == nil
			seeds[k] = append(seeds[k], o)
		}
		if rep.Released {
			released = l.site
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
