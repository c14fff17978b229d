// Package rcp implements Rainbow's replication control protocols (RCPs):
// Read-One-Write-All (ROWA) and weighted-voting Quorum Consensus (QC, the
// paper's default). The RCP runs at a transaction's home site and maps each
// logical operation onto physical copy operations at other sites, which
// pass through those sites' CCPs (paper §2.1).
//
// The RCP layer is where Rainbow classifies replication-level aborts: a
// logical operation that cannot reach enough copies aborts the transaction
// with cause RCP; a copy operation rejected by a remote CCP propagates its
// CC abort unchanged.
package rcp

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/quorum"
	"repro/internal/schema"
)

// CopyAccess is the home site's handle for operating on physical copies.
// Implementations route to the local CCP directly or to remote sites over
// the wire layer.
type CopyAccess interface {
	// Local returns the home site's id (preferred for read-one locality).
	Local() model.SiteID
	// CopyBatch runs ops — the copy operations of sess's transaction bound
	// for site, in the order the site must admit them: a wave's whole share,
	// or a single operation of the interactive path — through that site's CCP
	// as one round trip, or inline when site is the home site. The reply
	// carries one result per op plus the serving site's incarnation number
	// (the session records it so the prepare can be fenced against a crash
	// recovery at that site in between); the first failed op ends the batch
	// (the ops after it report that they were not run). A non-nil error means
	// the batch as a whole got no answer, or was refused.
	//
	// leg says what the site does beyond admitting the ops (see Leg).
	CopyBatch(ctx context.Context, site model.SiteID, sess *Session, ops []model.Op, leg Leg) (BatchReply, error)
}

// Leg says how a site serves one CopyBatch beyond admitting its operations.
// The zero Leg is an ordinary batch: admit, waiting where the CCP must.
type Leg struct {
	// Final marks a last leg that folds (LastFold): a remote site that
	// admitted every op then runs the read-only vote's guards against
	// sess.Epoch and releases the transaction's CC state at once, reporting
	// Released; a site whose guards fail refuses the batch with an ACP abort.
	// The home site ignores it.
	Final bool
	// NoWait admits without ever waiting: an op that would have to wait
	// makes the site release everything the transaction holds there and
	// refuse the batch with ErrWouldBlock (see Plan).
	NoWait bool
	// Vote marks a leg that votes with its reply under 2PC: a remote leg of
	// an add-only wave, or a last leg that votes (LastVote). Once every op is
	// admitted, the site runs the prepare's guards against sess.Epoch, forces
	// its prepared record — sess.Tx's home as coordinator, Cohort as the
	// participants, the leg's writes and merged deltas as the write set, each
	// installing at the version after max(Floors[i], its own copy's) — and
	// reports Voted; a site whose guards fail refuses the batch with an ACP
	// abort. The home site ignores it (its vote is local).
	Vote bool
	// Cohort lists the sites the wave planned to touch (Vote legs only).
	Cohort []model.SiteID
	// Floors holds, per op, the highest version the wave's earlier legs
	// reported for it (the last leg of a wave that writes; nil means 0).
	Floors []model.Version
}

// ErrWouldBlock refuses a NoWait leg whose admission would have had to wait.
// The site released everything the transaction held there; the home abandons
// the attempt and reruns the program as an ordered wave.
var ErrWouldBlock = &model.AbortError{Cause: model.AbortCC, Reason: "no-wait leg would block"}

// VoteLostError reports a Vote leg that got no reply: its site may have
// voted — prepared, holding a write set — so no replacement round may
// complete a quorum without it. The home abandons the attempt (presumed
// abort: nothing is logged) and reruns the program once with Site left out of
// the first round (Plan's avoid).
type VoteLostError struct {
	Site model.SiteID
	Err  error
}

func (e *VoteLostError) Error() string {
	return fmt.Sprintf("voting leg at %s got no reply: %v", e.Site, e.Err)
}

func (e *VoteLostError) Unwrap() error { return e.Err }

// BatchReply is a site's answer to one CopyBatch.
type BatchReply struct {
	Results     []CopyResult
	Incarnation uint64
	// Released reports that the site folded its read-only vote into the batch
	// and already released the transaction there.
	Released bool
	// Voted reports that the site voted yes with the batch (Leg.Vote): it is
	// prepared, and the commit protocol need not ask it again.
	Voted bool
}

// CopyResult is the outcome of one copy operation inside a CopyBatch: the
// copy's value (reads) and current version, or the error that stopped it.
type CopyResult struct {
	Value   int64
	Version model.Version
	Err     error
}

// Session accumulates one transaction's replication state at its home site:
// the set of sites touched (the future commit cohort) and the final write
// records each participant must install.
type Session struct {
	Tx model.TxID
	TS model.Timestamp
	// Epoch is the catalog epoch the transaction began under: a wave's folded
	// last leg carries it for the serving site's epoch fence.
	Epoch uint64

	mu        sync.Mutex
	touched   map[model.SiteID]bool
	attempted map[model.SiteID]bool
	writes    map[model.SiteID]map[model.ItemID]model.WriteRecord
	// incs records, per site, the incarnation number the site reported on
	// this transaction's FIRST copy operation there. The prepare echoes it
	// so the site can reject exactly when it crash-recovered (or was
	// live-rebuilt) after protecting the operation — the CC state backing
	// the prepare died with the old incarnation.
	incs map[model.SiteID]uint64
	// voted holds the sites that voted yes with their copy operation's
	// reply (Leg.Vote) — or may have, their reply lost; nil until one does.
	voted map[model.SiteID]bool
}

// NewSession starts a session for one transaction.
func NewSession(tx model.TxID, ts model.Timestamp) *Session {
	return &Session{
		Tx:        tx,
		TS:        ts,
		touched:   make(map[model.SiteID]bool),
		attempted: make(map[model.SiteID]bool),
		writes:    make(map[model.SiteID]map[model.ItemID]model.WriteRecord),
		incs:      make(map[model.SiteID]uint64),
	}
}

// Touch records that site holds CC state for the transaction.
func (s *Session) Touch(site model.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	s.attempted[site] = true
}

// Attempt records that a copy operation was SENT to site, whether or not a
// response arrived. A request that times out at the coordinator may still
// succeed late at the site, leaving CC state there; the home site must
// release such sites at the end of the transaction even though they never
// became participants.
func (s *Session) Attempt(site model.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted[site] = true
}

// Release drops site from the transaction altogether: it released its CC
// state by itself (a read-only wave's folded last leg), so it is neither a
// commit participant nor a stray to send a release to.
func (s *Session) Release(site model.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.touched, site)
	delete(s.attempted, site)
}

// Vote records that site voted yes with its copy operation's reply: it is a
// participant, prepared already, that the commit protocol need not ask.
func (s *Session) Vote(site model.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	s.attempted[site] = true
	if s.voted == nil {
		s.voted = make(map[model.SiteID]bool)
	}
	s.voted[site] = true
}

// Voted returns the sites that voted with their reply, sorted.
func (s *Session) Voted() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedSites(s.voted, nil)
}

// Strays returns the attempted sites that did not become participants —
// the set the home site must send releases to regardless of outcome.
func (s *Session) Strays() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedSites(s.attempted, func(site model.SiteID, _ bool) bool { return !s.touched[site] })
}

// SawIncarnation records the incarnation number site reported on a copy
// operation. The first observation wins: if the site restarts mid-
// transaction, later operations would report a newer incarnation, but the
// protection of the EARLIER operations is what the prepare must verify.
func (s *Session) SawIncarnation(site model.SiteID, inc uint64) {
	if inc == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.incs[site]; !ok {
		s.incs[site] = inc
	}
}

// IncarnationFor returns the incarnation recorded for site (0 = none).
func (s *Session) IncarnationFor(site model.SiteID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incs[site]
}

// WriteSites returns the sites holding write records — the 3PC termination
// electorate (read-only participants are excluded from quorum counting).
func (s *Session) WriteSites() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedSites(s.writes, func(_ model.SiteID, m map[model.ItemID]model.WriteRecord) bool { return len(m) > 0 })
}

// RecordWrite records the final write record site must install at commit.
// A later write of the same item by the same transaction replaces the
// earlier record.
func (s *Session) RecordWrite(site model.SiteID, rec model.WriteRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	if s.writes[site] == nil {
		s.writes[site] = make(map[model.ItemID]model.WriteRecord)
	}
	s.writes[site][rec.Item] = rec
}

// RecordAdd merges a delta write record for site: repeated adds of the same
// item by one transaction sum their deltas (RecordWrite's last-wins rule
// would lose the earlier ones), keeping the larger install version.
func (s *Session) RecordAdd(site model.SiteID, rec model.WriteRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	if s.writes[site] == nil {
		s.writes[site] = make(map[model.ItemID]model.WriteRecord)
	}
	if old, ok := s.writes[site][rec.Item]; ok && old.Delta && rec.Delta {
		rec.Value += old.Value
		rec.Version = max(rec.Version, old.Version)
	}
	s.writes[site][rec.Item] = rec
}

// WriteQuorum returns the sites already holding a write record for item —
// the write quorum a previous logical write of this transaction built —
// and that record. A repeated write MUST update exactly this set: building
// a fresh quorum could leave a non-overlapping member of the old one with
// the stale record, and commit would then install two different values
// under one version number on different copies.
func (s *Session) WriteQuorum(item model.ItemID) ([]model.SiteID, model.WriteRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sites []model.SiteID
	var rec model.WriteRecord
	found := false
	for site, m := range s.writes {
		if r, ok := m[item]; ok {
			sites = append(sites, site)
			rec, found = r, true
		}
	}
	slices.Sort(sites)
	return sites, rec, found
}

// Participants returns every touched site in sorted order — the atomic
// commit cohort (read-only participants included: under strict CC they hold
// read locks that only the commit protocol releases).
func (s *Session) Participants() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedSites(s.touched, nil)
}

// WritesFor returns the write records site must install, sorted by item.
func (s *Session) WritesFor(site model.SiteID) []model.WriteRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.writes[site]
	out := make([]model.WriteRecord, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b model.WriteRecord) int { return cmp.Compare(a.Item, b.Item) })
	return out
}

// sortedSites returns the sites of m for which keep holds (every site when
// keep is nil), sorted.
func sortedSites[V any](m map[model.SiteID]V, keep func(model.SiteID, V) bool) []model.SiteID {
	out := make([]model.SiteID, 0, len(m))
	for site, v := range m {
		if keep == nil || keep(site, v) {
			out = append(out, site)
		}
	}
	slices.Sort(out)
	return out
}

// Protocol is a replication control protocol: ROWA or QC. The two differ
// only in which copies each logical operation must reach (rule); reaching
// them — rounds, replacements, session bookkeeping — is the shared machinery
// below (perform for one operation, Wave for a whole one-shot program), so
// they cannot drift apart in how they classify failures or record writes.
type Protocol struct {
	name string
	// rule returns the vote assignment over the copies an operation of the
	// given kind may use and how many of those votes it must gather.
	rule func(sess *Session, kind model.OpKind, meta schema.ItemMeta) (quorum.Assignment, int)
}

// Name returns "rowa" or "qc".
func (p Protocol) Name() string { return p.name }

// Read performs a logical read of the item described by meta.
func (p Protocol) Read(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta) (int64, error) {
	return p.perform(ctx, acc, sess, meta, model.Read(meta.Item), nil)
}

// Write performs a logical write: pre-writes enough copies and records the
// final write records (with install versions) in the session.
func (p Protocol) Write(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, value int64) error {
	_, err := p.perform(ctx, acc, sess, meta, model.Write(meta.Item, value), nil)
	return err
}

// Add performs a logical blind add: the delta merges into every copy at
// commit. BOTH protocols pre-add ALL copies: a delta missing from a copy
// cannot be reconstructed by a version-based quorum read (versions say
// which copy is newest, not which deltas it absorbed), so add availability
// follows ROWA's write-all rule even under QC.
func (p Protocol) Add(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, delta int64) error {
	_, err := p.perform(ctx, acc, sess, meta, model.Add(meta.Item, delta), nil)
	return err
}

// New returns the protocol with the given name.
func New(name string) (Protocol, error) {
	switch name {
	case "qc", "QC", "":
		return QC, nil
	case "rowa", "ROWA":
		return ROWA, nil
	default:
		return Protocol{}, fmt.Errorf("rcp: unknown replication control protocol %q", name)
	}
}

// Names lists the available RCP names.
func Names() []string { return []string{"rowa", "qc"} }

// allOf is the quorum that needs every one of sites.
func allOf(sites []model.SiteID) (quorum.Assignment, int) {
	return quorum.ReadOneWriteAll(sites), len(sites)
}

// preferredOrder is the deterministic preference order both protocols use:
// the copy sites of meta, sorted, rotated to start at home — or, when home
// holds no copy, at the first copy site after it. Every home thus prefers the
// sites that follow it in ring order, so under majority quorums its partner
// sorts after it, and the wave's last leg is remote: it may fold or vote (see
// Plan). The highest-numbered home's partner wraps around to the lowest site
// and sorts first; a first 2PC attempt then runs the home's leg first.
func preferredOrder(home model.SiteID, meta schema.ItemMeta) []model.SiteID {
	sites := meta.Sites()
	i, _ := slices.BinarySearch(sites, home)
	return slices.Concat(sites[i:], sites[:i])
}

// isCC reports whether err is a protocol abort that must stop the
// transaction (as opposed to a copy being unreachable, which the RCP may
// route around).
func isCC(err error) bool {
	c := model.CauseOf(err)
	return c == model.AbortCC || c == model.AbortACP || c == model.AbortInjected
}

// outcome is one copy operation's result at one site, with the incarnation
// the site reported alongside it.
type outcome struct {
	site model.SiteID
	CopyResult
	inc uint64
}

// perform carries out one logical operation. It gathers the votes the
// protocol asks for by running the copy operation at the minimal preferred
// vote set (assuming all sites up — this is what keeps QC message counts
// near the quorum size, the property experiment E2 measures), replaces
// members that failed to respond with the remaining vote-holders until the
// quorum is complete or provably unreachable, and folds the result into the
// session: a read returns the value carried by the highest version gathered;
// a write or add records max(version)+1 at the members that took it.
//
// A copy that is unreachable is routed around and, failing that, aborts the
// operation with cause RCP; a copy operation rejected by a site's CCP stops
// the transaction with that abort unchanged.
//
// seed holds results a wave already obtained for this operation; those sites
// are picked first, and none of them is asked again.
func (p Protocol) perform(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, op model.Op, seed []outcome) (int64, error) {
	assignment, need := p.rule(sess, op.Kind, meta)
	prefer := preferredOrder(acc.Local(), meta)
	if len(seed) > 0 {
		first := make([]model.SiteID, len(seed), len(seed)+len(prefer))
		for i, o := range seed {
			first[i] = o.site
		}
		prefer = append(first, prefer...)
	}
	tried := make(map[model.SiteID]bool, len(prefer))
	var (
		won     []model.SiteID
		got     int
		best    CopyResult // the highest-versioned result among won
		lastErr error
	)
	for got < need {
		// Select sites to cover the remaining votes, excluding failures and
		// already-counted members.
		round, ok := assignment.Pick(need-got, prefer, tried)
		if !ok || len(round) == 0 {
			return 0, model.Abortf(model.AbortRCP, "%s: %s of %s reached %d of %d votes: %v",
				p.Name(), op.Kind, meta.Item, got, need, lastErr)
		}
		var ccErr error
		for _, r := range runRound(ctx, acc, sess, op, round, seed) {
			tried[r.site] = true
			switch {
			case r.Err == nil:
				sess.SawIncarnation(r.site, r.inc)
				sess.Touch(r.site)
				got += assignment.Votes[r.site]
				if len(won) == 0 || r.Version > best.Version {
					best = r.CopyResult
				}
				won = append(won, r.site)
			case isCC(r.Err):
				// The site's CCP rejected the operation: the transaction is
				// doomed; that site holds CC state to release.
				sess.Touch(r.site)
				if ccErr == nil {
					ccErr = r.Err
				}
			default:
				lastErr = r.Err // unreachable copy: stays excluded, re-pick
			}
		}
		if ccErr != nil {
			return 0, ccErr
		}
	}

	switch op.Kind {
	case model.OpWrite:
		rec := model.WriteRecord{Item: meta.Item, Value: op.Value, Version: best.Version + 1}
		if _, prev, ok := sess.WriteQuorum(meta.Item); ok {
			rec.Version = prev.Version // a repeated write keeps its install version
		}
		for _, site := range won {
			sess.RecordWrite(site, rec)
		}
	case model.OpAdd:
		// Delta applies ignore the version, but recording it keeps version
		// bookkeeping — and quorum reads that follow a committed add —
		// monotonic.
		rec := model.WriteRecord{Item: meta.Item, Value: op.Value, Version: best.Version + 1, Delta: true}
		for _, site := range won {
			sess.RecordAdd(site, rec)
		}
	}
	return best.Value, nil
}

// runRound runs op at every site of round concurrently and returns the
// results in round order. Sites with a seeded result are not asked again.
func runRound(ctx context.Context, acc CopyAccess, sess *Session, op model.Op, round []model.SiteID, seed []outcome) []outcome {
	out := make([]outcome, len(round))
	var ask []int
	for i, site := range round {
		if j := slices.IndexFunc(seed, func(o outcome) bool { return o.site == site }); j >= 0 {
			out[i] = seed[j]
			continue
		}
		sess.Attempt(site)
		out[i].site = site
		ask = append(ask, i)
	}
	if len(ask) == 1 {
		copyAt(ctx, acc, sess, op, &out[ask[0]])
		return out
	}
	var wg sync.WaitGroup
	for _, i := range ask {
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			copyAt(ctx, acc, sess, op, o)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// copyAt runs one copy operation at o.site — a batch of one — and stores its
// result in o.
func copyAt(ctx context.Context, acc CopyAccess, sess *Session, op model.Op, o *outcome) {
	rep, err := acc.CopyBatch(ctx, o.site, sess, []model.Op{op}, Leg{})
	if err != nil {
		o.Err = err
		return
	}
	o.CopyResult, o.inc = rep.Results[0], rep.Incarnation
}
