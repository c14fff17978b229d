package acp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/wire"
)

// fakeCohort wires a coordinator to in-memory Participants, with per-site
// failure switches.
type fakeCohort struct {
	mu           sync.Mutex
	participants map[model.SiteID]*Participant
	down         map[model.SiteID]bool
	voteNo       map[model.SiteID]bool
	// dropDecision suppresses decision delivery to a site (simulates the
	// coordinator crashing after deciding).
	dropDecision map[model.SiteID]bool
	// dropPreCommit suppresses just the pre-commit round at a site (the
	// site stays up for votes and decisions).
	dropPreCommit map[model.SiteID]bool
	prepares      int
	homeCommits   int
	decisions     int
	precommits    int
	ends          int
}

func newFakeCohort() *fakeCohort {
	return &fakeCohort{
		participants:  make(map[model.SiteID]*Participant),
		down:          make(map[model.SiteID]bool),
		voteNo:        make(map[model.SiteID]bool),
		dropDecision:  make(map[model.SiteID]bool),
		dropPreCommit: make(map[model.SiteID]bool),
	}
}

func (f *fakeCohort) add(site model.SiteID, a Applier) *Participant {
	p := NewParticipant(site, wal.NewMemory(), a)
	f.mu.Lock()
	f.participants[site] = p
	f.mu.Unlock()
	return p
}

func (f *fakeCohort) Prepare(ctx context.Context, site model.SiteID, req wire.PrepareReq) (wire.VoteResp, error) {
	f.mu.Lock()
	f.prepares++
	down, no := f.down[site], f.voteNo[site]
	p := f.participants[site]
	f.mu.Unlock()
	if down {
		<-ctx.Done()
		return wire.VoteResp{}, ctx.Err()
	}
	if no {
		return wire.VoteResp{Yes: false, Reason: "injected"}, nil
	}
	return p.HandlePrepare(req), nil
}

// CommitHome runs the coordinator's prepare and commit decision in one force
// at its participant half; a voteNo coordinator votes no.
func (f *fakeCohort) CommitHome(ctx context.Context, req wire.PrepareReq) (wire.VoteResp, error) {
	f.mu.Lock()
	f.homeCommits++
	no := f.voteNo[req.Coordinator]
	p := f.participants[req.Coordinator]
	f.mu.Unlock()
	if no {
		return wire.VoteResp{Yes: false, Reason: "injected"}, nil
	}
	return wire.VoteResp{Yes: true}, p.PrepareCommit(req)
}

func (f *fakeCohort) PreCommit(ctx context.Context, site model.SiteID, tx model.TxID) error {
	f.mu.Lock()
	f.precommits++
	down := f.down[site] || f.dropPreCommit[site]
	p := f.participants[site]
	f.mu.Unlock()
	if down {
		<-ctx.Done()
		return ctx.Err()
	}
	return p.HandlePreCommit(tx)
}

func (f *fakeCohort) Decide(ctx context.Context, site model.SiteID, tx model.TxID, commit, lazy bool) error {
	f.mu.Lock()
	f.decisions++
	blocked := f.down[site] || f.dropDecision[site]
	p := f.participants[site]
	f.mu.Unlock()
	if blocked {
		<-ctx.Done()
		return ctx.Err()
	}
	return p.HandleDecision(tx, commit)
}

func (f *fakeCohort) End(ctx context.Context, site model.SiteID, tx model.TxID) error {
	f.mu.Lock()
	f.ends++
	down := f.down[site]
	p := f.participants[site]
	f.mu.Unlock()
	if down {
		<-ctx.Done()
		return ctx.Err()
	}
	p.Retire(tx)
	return nil
}

// fakeApplier records what was committed/aborted.
type fakeApplier struct {
	mu        sync.Mutex
	committed map[model.TxID][]model.WriteRecord
	aborted   map[model.TxID]bool
}

func newApplier() *fakeApplier {
	return &fakeApplier{committed: make(map[model.TxID][]model.WriteRecord), aborted: make(map[model.TxID]bool)}
}

func (a *fakeApplier) Commit(tx model.TxID, writes []model.WriteRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.committed[tx] = writes
	return nil
}

func (a *fakeApplier) Abort(tx model.TxID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.aborted[tx] = true
}

func (a *fakeApplier) wasCommitted(tx model.TxID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.committed[tx]
	return ok
}

func (a *fakeApplier) wasAborted(tx model.TxID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.aborted[tx]
}

var testOpts = Options{Vote: 100 * time.Millisecond, Ack: 100 * time.Millisecond}

func request(sites ...model.SiteID) Request {
	return Request{
		Tx:           model.TxID{Site: "S1", Seq: 1},
		TS:           model.Timestamp{Time: 1, Site: "S1"},
		Coordinator:  "S1",
		Participants: sites,
		WritesFor: func(s model.SiteID) []model.WriteRecord {
			return []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}
		},
	}
}

func TestNewByName(t *testing.T) {
	for name, three := range map[string]bool{"2pc": false, "3pc": true, "": false} {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.ThreePhase() != three {
			t.Errorf("New(%q).ThreePhase() = %v", name, p.ThreePhase())
		}
	}
	if _, err := New("paxos-commit"); err == nil {
		t.Error("unknown ACP accepted")
	}
}

func TestStateName(t *testing.T) {
	for s, want := range map[uint8]string{
		StateNone: "none", StatePrepared: "prepared", StatePreCommitted: "precommitted",
		StateCommitted: "committed", StateAborted: "aborted",
		StatePreAborted: "preaborted", 99: "state(99)",
	} {
		if got := StateName(s); got != want {
			t.Errorf("StateName(%d) = %q", s, got)
		}
	}
}

// commitInline runs the protocol and then its tail before returning, the
// way a caller that reports the outcome only after phase 2 does.
func commitInline(proto Protocol, f *fakeCohort, log wal.Log, req Request, onDecision func(bool)) (bool, error) {
	commit, tail, err := proto.Commit(context.Background(), f, log, testOpts, req, onDecision)
	if tail != nil {
		tail(context.Background(), false)
	}
	return commit, err
}

func runProtocol(t *testing.T, proto Protocol, f *fakeCohort, req Request) (bool, error) {
	t.Helper()
	log := wal.NewMemory()
	var recorded *bool
	commit, err := commitInline(proto, f, log, req, func(c bool) { recorded = &c })
	if recorded == nil {
		t.Error("onDecision not invoked")
	} else if *recorded != commit {
		t.Errorf("onDecision(%v) but Commit returned %v", *recorded, commit)
	}
	return commit, err
}

func testCommitAllYes(t *testing.T, proto Protocol) {
	f := newFakeCohort()
	appliers := map[model.SiteID]*fakeApplier{}
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		appliers[s] = newApplier()
		f.add(s, appliers[s])
	}
	req := request("S1", "S2", "S3")
	commit, err := runProtocol(t, proto, f, req)
	if err != nil || !commit {
		t.Fatalf("commit = %v, %v", commit, err)
	}
	for s, a := range appliers {
		if !a.wasCommitted(req.Tx) {
			t.Errorf("%s did not apply the commit", s)
		}
	}
}

func testAbortOnNoVote(t *testing.T, proto Protocol) {
	f := newFakeCohort()
	appliers := map[model.SiteID]*fakeApplier{}
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		appliers[s] = newApplier()
		f.add(s, appliers[s])
	}
	f.voteNo["S2"] = true
	req := request("S1", "S2", "S3")
	commit, err := runProtocol(t, proto, f, req)
	if commit {
		t.Fatal("committed despite a no vote")
	}
	if model.CauseOf(err) != model.AbortACP {
		t.Errorf("cause = %v", model.CauseOf(err))
	}
	// The yes-voters must learn the abort.
	if !appliers["S1"].wasAborted(req.Tx) || !appliers["S3"].wasAborted(req.Tx) {
		t.Error("yes-voters not aborted")
	}
}

func testAbortOnParticipantDown(t *testing.T, proto Protocol) {
	f := newFakeCohort()
	for _, s := range []model.SiteID{"S1", "S2"} {
		f.add(s, newApplier())
	}
	f.down["S2"] = true
	commit, err := runProtocol(t, proto, f, request("S1", "S2"))
	if commit {
		t.Fatal("committed with an unreachable participant")
	}
	if model.CauseOf(err) != model.AbortACP {
		t.Errorf("cause = %v", model.CauseOf(err))
	}
}

func TestTwoPCCommitAllYes(t *testing.T)    { testCommitAllYes(t, TwoPC{}) }
func TestThreePCCommitAllYes(t *testing.T)  { testCommitAllYes(t, ThreePC{}) }
func TestTwoPCAbortOnNoVote(t *testing.T)   { testAbortOnNoVote(t, TwoPC{}) }
func TestThreePCAbortOnNoVote(t *testing.T) { testAbortOnNoVote(t, ThreePC{}) }
func TestTwoPCAbortOnDown(t *testing.T)     { testAbortOnParticipantDown(t, TwoPC{}) }
func TestThreePCAbortOnDown(t *testing.T)   { testAbortOnParticipantDown(t, ThreePC{}) }

func TestThreePCSendsPreCommit(t *testing.T) {
	f := newFakeCohort()
	for _, s := range []model.SiteID{"S1", "S2"} {
		f.add(s, newApplier())
	}
	if _, err := runProtocol(t, ThreePC{}, f, request("S1", "S2")); err != nil {
		t.Fatal(err)
	}
	if f.precommits != 2 {
		t.Errorf("precommits = %d, want 2", f.precommits)
	}
}

func TestTwoPCSkipsPreCommit(t *testing.T) {
	f := newFakeCohort()
	for _, s := range []model.SiteID{"S1", "S2"} {
		f.add(s, newApplier())
	}
	if _, err := runProtocol(t, TwoPC{}, f, request("S1", "S2")); err != nil {
		t.Fatal(err)
	}
	if f.precommits != 0 {
		t.Errorf("precommits = %d, want 0", f.precommits)
	}
}

func TestCoordinatorLogsDecisionBeforeBroadcast(t *testing.T) {
	f := newFakeCohort()
	a := newApplier()
	log := f.add("S1", a).log // the coordinator's site has one WAL
	req := request("S1")
	decided := false
	_, err := commitInline(TwoPC{}, f, log, req, func(commit bool) {
		decided = true
		// At decision time the decision record must already be durable.
		recs, _ := log.ReadAll()
		found := false
		for _, r := range recs {
			if r.Type == wal.RecDecision && r.Tx == req.Tx && r.Commit {
				found = true
			}
		}
		if !found {
			t.Error("decision not logged before onDecision")
		}
	})
	if err != nil || !decided {
		t.Fatalf("err = %v, decided = %v", err, decided)
	}
	// All acked → RecEnd present.
	recs, _ := log.ReadAll()
	if recs[len(recs)-1].Type != wal.RecEnd {
		t.Errorf("last record = %v, want end", recs[len(recs)-1].Type)
	}
}

func TestNoEndRecordWhenAckMissing(t *testing.T) {
	f := newFakeCohort()
	f.add("S1", newApplier())
	f.add("S2", newApplier())
	f.dropDecision["S2"] = true
	log := wal.NewMemory()
	commit, err := commitInline(TwoPC{}, f, log, request("S1", "S2"), nil)
	if err != nil || !commit {
		t.Fatalf("commit failed: %v", err)
	}
	recs, _ := log.ReadAll()
	for _, r := range recs {
		if r.Type == wal.RecEnd {
			t.Error("RecEnd written although an ack is missing")
		}
	}
}

// Commit returns at the forced decision: no Decide has been sent and no end
// record written until the caller runs the tail, which then does all of
// phase 2 and reports the full ack.
func TestCommitReturnsAtDecisionForce(t *testing.T) {
	for _, proto := range []Protocol{TwoPC{}, ThreePC{}} {
		t.Run(proto.Name(), func(t *testing.T) {
			f := newFakeCohort()
			appliers := map[model.SiteID]*fakeApplier{"S1": newApplier(), "S2": newApplier()}
			for s, a := range appliers {
				f.add(s, a)
			}
			log := f.participants["S1"].log // the coordinator's site has one WAL
			req := request("S1", "S2")
			req.Voters = req.Participants
			commit, tail, err := proto.Commit(context.Background(), f, log, testOpts, req, nil)
			if err != nil || !commit || tail == nil {
				t.Fatalf("commit = %v, tail = %v, err = %v", commit, tail != nil, err)
			}
			recs, _ := log.ReadAll()
			if last := recs[len(recs)-1]; last.Type != wal.RecDecision || !last.Commit {
				t.Fatalf("last record at return = %v, want the commit decision", last.Type)
			}
			if f.decisions != 0 || appliers["S2"].wasCommitted(req.Tx) {
				t.Fatalf("phase 2 ran before the tail: %d decisions sent", f.decisions)
			}
			if !tail(context.Background(), false) {
				t.Fatal("tail reports a missing ack")
			}
			if f.decisions != 2 || f.ends != 2 || !appliers["S2"].wasCommitted(req.Tx) {
				t.Errorf("after the tail: %d decisions, %d ends, S2 committed %v", f.decisions, f.ends, appliers["S2"].wasCommitted(req.Tx))
			}
			recs, _ = log.ReadAll()
			if recs[len(recs)-1].Type != wal.RecEnd {
				t.Errorf("last record after the tail = %v, want end", recs[len(recs)-1].Type)
			}
		})
	}
}

// A tail whose Decide is dropped reports the missing ack and leaves the
// decision unretired; a read-only commit has no tail at all.
func TestTailReportsMissingAck(t *testing.T) {
	f := newFakeCohort()
	f.add("S1", newApplier())
	f.add("S2", newApplier())
	f.dropDecision["S2"] = true
	_, tail, err := (TwoPC{}).Commit(context.Background(), f, wal.NewMemory(), testOpts, request("S1", "S2"), nil)
	if err != nil || tail == nil {
		t.Fatalf("tail = %v, err = %v", tail != nil, err)
	}
	if tail(context.Background(), false) {
		t.Error("tail reports every ack although S2's Decide was dropped")
	}
	if f.ends != 0 {
		t.Errorf("%d end messages sent without the full ack", f.ends)
	}

	ro := request("S1")
	ro.Tx.Seq = 2
	ro.WritesFor = func(model.SiteID) []model.WriteRecord { return nil }
	if _, tail, err := (TwoPC{}).Commit(context.Background(), f, wal.NewMemory(), testOpts, ro, nil); err != nil || tail != nil {
		t.Errorf("read-only commit: tail = %v, err = %v", tail != nil, err)
	}
}

// --- Participant ---

func TestParticipantPrepareForcesLog(t *testing.T) {
	log := wal.NewMemory()
	p := NewParticipant("S2", log, newApplier())
	req := wire.PrepareReq{
		Tx: model.TxID{Site: "S1", Seq: 9}, Coordinator: "S1",
		Participants: []model.SiteID{"S1", "S2"},
		Writes:       []model.WriteRecord{{Item: "x", Value: 5, Version: 2}},
	}
	v := p.HandlePrepare(req)
	if !v.Yes {
		t.Fatalf("vote = %+v", v)
	}
	recs, _ := log.ReadAll()
	if len(recs) != 1 || recs[0].Type != wal.RecPrepared || len(recs[0].Writes) != 1 {
		t.Errorf("log = %+v", recs)
	}
	if p.termState(req.Tx) != StatePrepared {
		t.Error("state not prepared")
	}
	if p.InDoubtCount() != 1 {
		t.Error("in-doubt count wrong")
	}
}

func TestParticipantDuplicatePrepareIdempotent(t *testing.T) {
	p := NewParticipant("S2", wal.NewMemory(), newApplier())
	req := wire.PrepareReq{Tx: model.TxID{Site: "S1", Seq: 9}, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}}
	p.HandlePrepare(req)
	v := p.HandlePrepare(req)
	if !v.Yes {
		t.Error("duplicate prepare should re-vote yes")
	}
	if p.InDoubtCount() != 1 {
		t.Error("duplicate prepare duplicated state")
	}
}

func TestParticipantDecisionAppliesOnce(t *testing.T) {
	a := newApplier()
	p := NewParticipant("S2", wal.NewMemory(), a)
	tx := model.TxID{Site: "S1", Seq: 9}
	p.HandlePrepare(wire.PrepareReq{Tx: tx, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}})
	if err := p.HandleDecision(tx, true); err != nil {
		t.Fatal(err)
	}
	if !a.wasCommitted(tx) {
		t.Fatal("not committed")
	}
	// Duplicate decision: idempotent, no double apply.
	a.mu.Lock()
	delete(a.committed, tx)
	a.mu.Unlock()
	if err := p.HandleDecision(tx, true); err != nil {
		t.Fatal(err)
	}
	if a.wasCommitted(tx) {
		t.Error("decision applied twice")
	}
	if commit, known := p.Decision(tx); !known || !commit {
		t.Error("decision not recorded")
	}
}

func TestParticipantAbortDecision(t *testing.T) {
	a := newApplier()
	p := NewParticipant("S2", wal.NewMemory(), a)
	tx := model.TxID{Site: "S1", Seq: 9}
	p.HandlePrepare(wire.PrepareReq{Tx: tx, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}})
	p.HandleDecision(tx, false)
	if !a.wasAborted(tx) {
		t.Error("not aborted")
	}
	if p.termState(tx) != StateAborted {
		t.Error("term state not aborted")
	}
}

func TestParticipantPrepareAfterDecisionVotesAccordingly(t *testing.T) {
	p := NewParticipant("S2", wal.NewMemory(), newApplier())
	tx := model.TxID{Site: "S1", Seq: 9}
	p.HandleDecision(tx, false)
	v := p.HandlePrepare(wire.PrepareReq{Tx: tx})
	if v.Yes {
		t.Error("prepare after abort decision voted yes")
	}
}

func TestParticipantInDoubtAging(t *testing.T) {
	p := NewParticipant("S2", wal.NewMemory(), newApplier())
	tx := model.TxID{Site: "S1", Seq: 9}
	p.HandlePrepare(wire.PrepareReq{Tx: tx, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}})
	if got := p.InDoubt(time.Hour); len(got) != 0 {
		t.Error("fresh prepare reported as aged orphan")
	}
	if got := p.InDoubt(0); len(got) != 1 || got[0] != tx {
		t.Errorf("InDoubt(0) = %v", got)
	}
}

// fakeResolver routes termination traffic between real Participants (when
// registered via addPeer) or answers from static maps, with per-site
// unreachability switches — the harness behind the quorum-termination unit
// matrix.
type fakeResolver struct {
	mu        sync.Mutex
	peers     map[model.SiteID]*Participant
	decisions map[model.SiteID]map[model.TxID]bool // site → tx → commit
	states    map[model.SiteID]uint8               // static fallback (no peer)
	down      map[model.SiteID]bool
}

func newResolver() *fakeResolver {
	return &fakeResolver{
		peers:     make(map[model.SiteID]*Participant),
		decisions: make(map[model.SiteID]map[model.TxID]bool),
		states:    make(map[model.SiteID]uint8),
		down:      make(map[model.SiteID]bool),
	}
}

// addPeer registers a real participant to serve site's termination traffic.
func (r *fakeResolver) addPeer(site model.SiteID, p *Participant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers[site] = p
}

func (r *fakeResolver) peer(site model.SiteID) (*Participant, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down[site] {
		return nil, false, errors.New("unreachable")
	}
	p, ok := r.peers[site]
	return p, ok, nil
}

func (r *fakeResolver) QueryDecision(_ context.Context, site model.SiteID, tx model.TxID, threePhase bool) (bool, bool, error) {
	p, ok, err := r.peer(site)
	if err != nil {
		return false, false, err
	}
	if ok {
		commit, known := p.Decision(tx)
		return known, commit, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.decisions[site]; ok {
		if commit, ok := m[tx]; ok {
			return true, commit, nil
		}
	}
	return false, false, nil
}

func (r *fakeResolver) QueryTermination(_ context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot) (wire.TermQueryResp, error) {
	p, ok, err := r.peer(site)
	if err != nil {
		return wire.TermQueryResp{}, err
	}
	if ok {
		return p.HandleTermQuery(tx, ballot), nil
	}
	// Static fallback: emulate a stateless member from the states map.
	r.mu.Lock()
	defer r.mu.Unlock()
	switch st := r.states[site]; st {
	case StateCommitted:
		return wire.TermQueryResp{Decided: true, Commit: true}, nil
	case StateAborted:
		return wire.TermQueryResp{Decided: true, Commit: false}, nil
	default:
		return wire.TermQueryResp{Accepted: true, State: st}, nil
	}
}

func (r *fakeResolver) SendPreDecide(_ context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot, commit bool) (wire.TermPreDecideResp, error) {
	p, ok, err := r.peer(site)
	if err != nil {
		return wire.TermPreDecideResp{}, err
	}
	if ok {
		return p.HandlePreDecide(tx, ballot, commit), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch st := r.states[site]; st {
	case StateNone:
		return wire.TermPreDecideResp{Accepted: false}, nil
	case StateCommitted:
		return wire.TermPreDecideResp{Decided: true, Commit: true}, nil
	case StateAborted:
		return wire.TermPreDecideResp{Decided: true, Commit: false}, nil
	default:
		return wire.TermPreDecideResp{Accepted: true}, nil
	}
}

func (r *fakeResolver) SendDecision(_ context.Context, site model.SiteID, tx model.TxID, commit bool) error {
	p, ok, err := r.peer(site)
	if err != nil {
		return err
	}
	if ok {
		return p.HandleDecision(tx, commit)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.decisions[site] == nil {
		r.decisions[site] = make(map[model.TxID]bool)
	}
	r.decisions[site][tx] = commit
	return nil
}

func TestResolveViaCoordinator(t *testing.T) {
	a := newApplier()
	p := NewParticipant("S2", wal.NewMemory(), a)
	tx := model.TxID{Site: "S1", Seq: 1}
	p.HandlePrepare(wire.PrepareReq{Tx: tx, Coordinator: "S1", Participants: []model.SiteID{"S1", "S2"}, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}})

	r := newResolver()
	r.decisions["S1"] = map[model.TxID]bool{tx: true}
	if !p.Resolve(context.Background(), r, tx) {
		t.Fatal("resolve failed with live coordinator")
	}
	if !a.wasCommitted(tx) {
		t.Error("resolved commit not applied")
	}
}

func TestResolve2PCBlocksWithoutCoordinator(t *testing.T) {
	p := NewParticipant("S2", wal.NewMemory(), newApplier())
	tx := model.TxID{Site: "S1", Seq: 1}
	p.HandlePrepare(wire.PrepareReq{Tx: tx, Coordinator: "S1", Participants: []model.SiteID{"S1", "S2", "S3"}, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}})

	r := newResolver()
	r.down["S1"] = true // coordinator crashed; S3 uncertain too
	if p.Resolve(context.Background(), r, tx) {
		t.Fatal("2PC resolved without any decision source — safety violation")
	}
	if p.InDoubtCount() != 1 {
		t.Error("orphan lost")
	}
}

func TestResolve2PCViaPeer(t *testing.T) {
	a := newApplier()
	p := NewParticipant("S2", wal.NewMemory(), a)
	tx := model.TxID{Site: "S1", Seq: 1}
	p.HandlePrepare(wire.PrepareReq{Tx: tx, Coordinator: "S1", Participants: []model.SiteID{"S1", "S2", "S3"}, Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}})

	r := newResolver()
	r.down["S1"] = true
	r.decisions["S3"] = map[model.TxID]bool{tx: true} // peer learned commit
	if !p.Resolve(context.Background(), r, tx) {
		t.Fatal("2PC cooperative resolution failed")
	}
	if !a.wasCommitted(tx) {
		t.Error("commit not applied")
	}
}

// prepare3PC builds a participant holding tx in-doubt under the 3PC state
// machine and registers it with the resolver as self.
func prepare3PC(t *testing.T, r *fakeResolver, self model.SiteID, tx model.TxID) (*Participant, *fakeApplier) {
	t.Helper()
	a := newApplier()
	p := NewParticipant(self, wal.NewMemory(), a)
	v := p.HandlePrepare(wire.PrepareReq{
		Tx: tx, Coordinator: "S1",
		Participants: []model.SiteID{"S1", "S2", "S3"},
		Voters:       []model.SiteID{"S1", "S2", "S3"},
		ThreePhase:   true,
		Writes:       []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
	})
	if !v.Yes {
		t.Fatalf("prepare vote = %+v", v)
	}
	r.addPeer(self, p)
	return p, a
}

// --- 3PC quorum-termination matrix ---

// Coordinator crashed before any pre-commit: every reachable member is
// merely prepared, the election quorum (2 of 3) holds, and the
// pre-decision must be abort.
func TestResolve3PCAllPreparedAborts(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p, a := prepare3PC(t, r, "S2", tx)
	r.down["S1"] = true
	r.states["S3"] = StatePrepared
	if !p.Resolve(context.Background(), r, tx) {
		t.Fatal("3PC termination did not resolve")
	}
	if !a.wasAborted(tx) {
		t.Error("all-prepared cohort must abort")
	}
}

// Coordinator crashed after delivering at least one pre-commit: the
// pre-committed member carries the highest accepted ballot, so termination
// must commit (the coordinator may have decided commit).
func TestResolve3PCPreCommittedCommits(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p, a := prepare3PC(t, r, "S2", tx)
	if err := p.HandlePreCommit(tx); err != nil {
		t.Fatal(err)
	}
	r.down["S1"] = true
	r.states["S3"] = StatePrepared
	if !p.Resolve(context.Background(), r, tx) {
		t.Fatal("3PC termination did not resolve")
	}
	if !a.wasCommitted(tx) {
		t.Error("pre-committed member must drive commit")
	}
}

func TestResolve3PCPeerCommittedWins(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p, a := prepare3PC(t, r, "S2", tx)
	r.down["S1"] = true
	r.states["S3"] = StateCommitted
	p.Resolve(context.Background(), r, tx)
	if !a.wasCommitted(tx) {
		t.Error("peer's committed state must propagate")
	}
}

// A partition that splits the electorate below a majority must BLOCK —
// deciding on a minority view is exactly the bug quorum termination
// exists to prevent.
func TestResolve3PCPartitionBelowQuorumBlocks(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p, a := prepare3PC(t, r, "S2", tx)
	if err := p.HandlePreCommit(tx); err != nil {
		t.Fatal(err)
	}
	r.down["S1"] = true
	r.down["S3"] = true // only self reachable: 1 < quorum(3) = 2
	if p.Resolve(context.Background(), r, tx) {
		t.Fatal("terminated without an election quorum — safety violation")
	}
	if a.wasCommitted(tx) || a.wasAborted(tx) {
		t.Error("no outcome may be applied without a quorum")
	}
	if p.InDoubtCount() != 1 {
		t.Error("blocked transaction lost")
	}
}

// Two real members, one merely prepared and one pre-committed: the
// initiator that only holds prepared state must still terminate to COMMIT
// once the quorum surfaces the peer's pre-commit, and both members must
// agree.
func TestResolve3PCQuorumAdoptsPeerPreCommit(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p2, a2 := prepare3PC(t, r, "S2", tx)
	p3, a3 := prepare3PC(t, r, "S3", tx)
	if err := p3.HandlePreCommit(tx); err != nil {
		t.Fatal(err)
	}
	r.down["S1"] = true
	if !p2.Resolve(context.Background(), r, tx) {
		t.Fatal("3PC termination did not resolve")
	}
	if !a2.wasCommitted(tx) || !a3.wasCommitted(tx) {
		t.Errorf("members disagree: S2 committed=%v S3 committed=%v",
			a2.wasCommitted(tx), a3.wasCommitted(tx))
	}
}

// A member that crashed with a LOGGED pre-commit rejoins termination with
// that state (Restore + RestoreTermState), not as freshly prepared: its
// recovered pre-commit must carry the election to commit.
func TestResolve3PCRecoveredMemberRejoinsWithLoggedState(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	a := newApplier()
	p := NewParticipant("S2", wal.NewMemory(), a)
	p.Restore(wire.PrepareReq{
		Tx: tx, Coordinator: "S1",
		Participants: []model.SiteID{"S1", "S2", "S3"},
		Voters:       []model.SiteID{"S1", "S2", "S3"},
		Writes:       []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
	}, true)
	b := model.Ballot{N: 0, Site: "S1"}
	p.RestoreTermState(tx, StatePreCommitted, b, b)
	r.addPeer("S2", p)
	r.down["S1"] = true
	r.states["S3"] = StatePrepared
	if !p.Resolve(context.Background(), r, tx) {
		t.Fatal("3PC termination did not resolve")
	}
	if !a.wasCommitted(tx) {
		t.Error("recovered pre-commit must drive commit, not presumed abort")
	}
}

// A stale pre-decision (lower ballot than the member's promise) must be
// rejected: the promised-ballot fence is what stops a re-forming partition
// from resurrecting a dead attempt against a newer one.
func TestPreDecideBelowPromiseRejected(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p, _ := prepare3PC(t, r, "S2", tx)
	q := p.HandleTermQuery(tx, model.Ballot{N: 5, Site: "S3"})
	if !q.Accepted {
		t.Fatalf("election query rejected: %+v", q)
	}
	resp := p.HandlePreDecide(tx, model.Ballot{N: 2, Site: "S4"}, true)
	if resp.Accepted {
		t.Fatal("pre-decision below the promised ballot accepted")
	}
	if resp := p.HandlePreDecide(tx, model.Ballot{N: 5, Site: "S3"}, false); !resp.Accepted {
		t.Fatalf("pre-decision at the promised ballot rejected: %+v", resp)
	}
	if p.termState(tx) != StatePreAborted {
		t.Errorf("state = %s, want preaborted", StateName(p.termState(tx)))
	}
}

// A member with no trace of the transaction never voted yes — 3PC commit
// is impossible without it — so a termination query makes it decide abort
// unilaterally and DURABLY: the logged abort fences any late prepare, so
// the member can never retroactively supply the missing yes vote.
func TestTermQueryNoTraceMemberAbortsDurably(t *testing.T) {
	log := wal.NewMemory()
	p := NewParticipant("S2", log, newApplier())
	tx := model.TxID{Site: "S1", Seq: 9}
	q := p.HandleTermQuery(tx, model.Ballot{N: 1, Site: "S3"})
	if !q.Decided || q.Commit {
		t.Fatalf("no-trace election reply = %+v, want decided abort", q)
	}
	recs, _ := log.ReadAll()
	var logged bool
	for _, r := range recs {
		if r.Type == wal.RecDecision && r.Tx == tx && !r.Commit {
			logged = true
		}
	}
	if !logged {
		t.Fatal("unilateral abort not forced to the log")
	}
	// The fence: a late prepare for the same transaction must vote no.
	if v := p.HandlePrepare(wire.PrepareReq{
		Tx: tx, Coordinator: "S1", ThreePhase: true,
		Writes: []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
	}); v.Yes {
		t.Fatal("late prepare voted yes after a unilateral termination abort")
	}
	// And a pre-commit can never be acknowledged.
	if err := p.HandlePreCommit(tx); err == nil {
		t.Fatal("pre-commit acked after a unilateral termination abort")
	}
}

// A member that promised a termination-election ballot must NOT ack the
// coordinator's (lower-ballot) pre-commit round: the election read this
// member as merely prepared and may pre-decide abort — an ack here would
// let the coordinator's commit quorum overlap that abort, splitting the
// decision.
func TestPreCommitFencedByElectionPromise(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 1}
	p, _ := prepare3PC(t, r, "S2", tx)
	if q := p.HandleTermQuery(tx, model.Ballot{N: 1, Site: "S3"}); !q.Accepted {
		t.Fatalf("election query rejected: %+v", q)
	}
	if err := p.HandlePreCommit(tx); err == nil {
		t.Fatal("pre-commit acked after promising a higher election ballot")
	}
	if p.termState(tx) != StatePrepared {
		t.Errorf("state = %s, want prepared (the promised attempt owns it)", StateName(p.termState(tx)))
	}
	// The promised attempt's own pre-decision still lands.
	if resp := p.HandlePreDecide(tx, model.Ballot{N: 1, Site: "S3"}, false); !resp.Accepted {
		t.Fatalf("promised attempt's pre-decision rejected: %+v", resp)
	}
}

// The durable pre-commit rule: HandlePreCommit must force a RecPreDecide
// (ballot {0, coordinator}) before the ack.
func TestPreCommitIsDurable(t *testing.T) {
	log := wal.NewMemory()
	p := NewParticipant("S2", log, newApplier())
	tx := model.TxID{Site: "S1", Seq: 1}
	p.HandlePrepare(wire.PrepareReq{
		Tx: tx, Coordinator: "S1", ThreePhase: true,
		Participants: []model.SiteID{"S1", "S2"},
		Writes:       []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
	})
	if err := p.HandlePreCommit(tx); err != nil {
		t.Fatal(err)
	}
	recs, _ := log.ReadAll()
	var found bool
	for _, r := range recs {
		if r.Type == wal.RecPreDecide && r.Tx == tx && r.Commit && r.Ballot == (model.Ballot{N: 0, Site: "S1"}) {
			found = true
		}
	}
	if !found {
		t.Errorf("pre-commit not forced as RecPreDecide: log = %+v", recs)
	}
}

// ThreePC with the pre-commit quorum unreachable: the coordinator must
// return ErrInDoubt WITHOUT logging any decision — and quorum termination
// must later drive every member to the same outcome.
func TestThreePCNoPreCommitQuorumLeavesInDoubt(t *testing.T) {
	f := newFakeCohort()
	appliers := map[model.SiteID]*fakeApplier{}
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		appliers[s] = newApplier()
		f.add(s, appliers[s])
	}
	f.dropPreCommit["S2"] = true
	f.dropPreCommit["S3"] = true
	req := request("S1", "S2", "S3")
	req.Voters = []model.SiteID{"S1", "S2", "S3"}
	log := wal.NewMemory()
	commit, tail, err := (ThreePC{}).Commit(context.Background(), f, log, testOpts, req, nil)
	if commit {
		t.Fatal("committed without a pre-commit quorum")
	}
	if tail != nil {
		t.Error("an unresolved outcome came with a tail")
	}
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("err = %v, want ErrInDoubt", err)
	}
	recs, _ := log.ReadAll()
	for _, r := range recs {
		if r.Type == wal.RecDecision {
			t.Fatal("a decision was logged although the outcome is unresolved")
		}
	}
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		if appliers[s].wasCommitted(req.Tx) || appliers[s].wasAborted(req.Tx) {
			t.Fatalf("%s applied an outcome while in doubt", s)
		}
	}

	// Termination: wire the three real participants into a resolver and
	// let the pre-committed member (S1 acked the pre-commit) initiate.
	r := newResolver()
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		r.addPeer(s, f.participants[s])
	}
	if !f.participants["S1"].Resolve(context.Background(), r, req.Tx) {
		t.Fatal("quorum termination did not resolve")
	}
	var committed, aborted int
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		// Drain the decision to the two members that were not the
		// initiator (adoptDecision already broadcast; Resolve on them is a
		// cheap no-op or decision adoption).
		f.participants[s].Resolve(context.Background(), r, req.Tx)
		if appliers[s].wasCommitted(req.Tx) {
			committed++
		}
		if appliers[s].wasAborted(req.Tx) {
			aborted++
		}
	}
	if committed != 3 || aborted != 0 {
		t.Errorf("termination split the cohort: %d committed, %d aborted (pre-commit at S1 must force commit)", committed, aborted)
	}
}

func TestRestoreAndRestoreDecisions(t *testing.T) {
	a := newApplier()
	p := NewParticipant("S2", wal.NewMemory(), a)
	tx := model.TxID{Site: "S1", Seq: 1}
	p.Restore(wire.PrepareReq{
		Tx: tx, Coordinator: "S1", Participants: []model.SiteID{"S1", "S2"},
		Writes: []model.WriteRecord{{Item: "x", Value: 7, Version: 3}},
	}, false)
	if p.termState(tx) != StatePrepared {
		t.Error("restored tx not prepared")
	}

	other := model.TxID{Site: "S9", Seq: 5}
	p.RestoreDecisions([]wal.Record{{Type: wal.RecDecision, Tx: other, Commit: true}})
	if commit, known := p.Decision(other); !known || !commit {
		t.Error("decision table not restored")
	}

	// The restored in-doubt tx resolves and applies its writes.
	r := newResolver()
	r.decisions["S1"] = map[model.TxID]bool{tx: true}
	p.Resolve(context.Background(), r, tx)
	if got := a.committed[tx]; len(got) != 1 || got[0].Value != 7 {
		t.Errorf("restored writes not applied: %v", got)
	}
}

func TestRecordDecisionFirstWins(t *testing.T) {
	p := NewParticipant("S1", wal.NewMemory(), newApplier())
	tx := model.TxID{Site: "S1", Seq: 1}
	p.RecordDecision(tx, true)
	p.RecordDecision(tx, false) // late conflicting record must not overwrite
	if commit, known := p.Decision(tx); !known || !commit {
		t.Error("decision overwritten")
	}
}

// --- Read-only participant optimization ---

func TestReadOnlyParticipantSkipsPhase2(t *testing.T) {
	f := newFakeCohort()
	appliers := map[model.SiteID]*fakeApplier{}
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		appliers[s] = newApplier()
		f.add(s, appliers[s])
	}
	req := request("S1", "S2", "S3")
	// S3 holds no writes: it must vote read-only and see no decision.
	writesFor := req.WritesFor
	req.WritesFor = func(s model.SiteID) []model.WriteRecord {
		if s == "S3" {
			return nil
		}
		return writesFor(s)
	}
	commit, err := runProtocol(t, TwoPC{}, f, req)
	if err != nil || !commit {
		t.Fatalf("commit = %v, %v", commit, err)
	}
	if f.decisions != 2 {
		t.Errorf("decisions sent = %d, want 2 (read-only site excluded)", f.decisions)
	}
	// The read-only participant released its CC state at vote time.
	if !appliers["S3"].wasAborted(req.Tx) {
		t.Error("read-only participant did not release CC state")
	}
	if appliers["S3"].wasCommitted(req.Tx) {
		t.Error("read-only participant applied a commit")
	}
	// Writers applied normally.
	if !appliers["S1"].wasCommitted(req.Tx) || !appliers["S2"].wasCommitted(req.Tx) {
		t.Error("writers did not apply")
	}
}

func TestReadOnlyParticipantNeverOrphans(t *testing.T) {
	p := NewParticipant("S2", wal.NewMemory(), newApplier())
	v := p.HandlePrepare(wire.PrepareReq{Tx: model.TxID{Site: "S1", Seq: 9}})
	if !v.Yes || !v.ReadOnly {
		t.Fatalf("vote = %+v, want yes+read-only", v)
	}
	if p.InDoubtCount() != 0 {
		t.Error("read-only vote left in-doubt state")
	}
	// Nothing was logged: no recovery work can exist.
	if l := p.log.(*wal.MemoryLog); l.Len() != 0 {
		t.Errorf("read-only vote forced %d log records", l.Len())
	}
}

func TestAllReadOnlyCohortCommits(t *testing.T) {
	f := newFakeCohort()
	for _, s := range []model.SiteID{"S1", "S2"} {
		f.add(s, newApplier())
	}
	req := request("S1", "S2")
	req.WritesFor = func(model.SiteID) []model.WriteRecord { return nil }
	commit, err := runProtocol(t, TwoPC{}, f, req)
	if err != nil || !commit {
		t.Fatalf("all-read-only commit = %v, %v", commit, err)
	}
	if f.decisions != 0 {
		t.Errorf("decisions sent to an all-read-only cohort: %d", f.decisions)
	}
}

// --- 3PC termination leader preference ---

// ballotCountingResolver wraps a fakeResolver and records election traffic:
// how many termination queries went out and which distinct ballots they
// carried (one ballot == one election attempt somewhere in the electorate).
type ballotCountingResolver struct {
	*fakeResolver
	cmu     sync.Mutex
	queries int
	ballots map[model.Ballot]bool
}

func newBallotCounter(r *fakeResolver) *ballotCountingResolver {
	return &ballotCountingResolver{fakeResolver: r, ballots: make(map[model.Ballot]bool)}
}

func (c *ballotCountingResolver) QueryTermination(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot) (wire.TermQueryResp, error) {
	c.cmu.Lock()
	c.queries++
	c.ballots[ballot] = true
	c.cmu.Unlock()
	return c.fakeResolver.QueryTermination(ctx, site, tx, ballot)
}

func (c *ballotCountingResolver) counts() (queries, ballots int) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.queries, len(c.ballots)
}

// A member that promised a termination ballot from a LOWER-id voter knows
// the preferred initiator is live and electing: it must sit out its own
// attempts (no election traffic at all) until the deferral budget runs out,
// then elect anyway so a stalled initiator cannot block termination.
func TestTerminationDefersToLowerInitiator(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 21}
	p, a := prepare3PC(t, r, "S3", tx)
	r.down["S1"] = true // coordinator gone: Resolve goes to quorum termination
	r.states["S2"] = StatePrepared

	// S2 (lower id, the preferred initiator) ran an election round: S3
	// promised its ballot.
	if resp := p.HandleTermQuery(tx, model.Ballot{N: 5, Site: "S2"}); !resp.Accepted {
		t.Fatalf("promise refused: %+v", resp)
	}

	cr := newBallotCounter(r)
	for i := 0; i < termDeferMax; i++ {
		if p.Resolve(context.Background(), cr, tx) {
			t.Fatalf("attempt %d: resolved while deferring to S2", i+1)
		}
		if q, _ := cr.counts(); q != 0 {
			t.Fatalf("attempt %d: deferring member sent %d election queries", i+1, q)
		}
	}
	// Budget exhausted: S2 must have stalled, so S3 now initiates and (with
	// S2 answerable and every member merely prepared) terminates with abort.
	if !p.Resolve(context.Background(), cr, tx) {
		t.Fatal("post-deferral election did not resolve")
	}
	if q, b := cr.counts(); q == 0 || b != 1 {
		t.Errorf("post-deferral election: %d queries, %d ballots, want >0 queries from exactly 1 ballot", q, b)
	}
	if !a.wasAborted(tx) {
		t.Error("termination outcome not applied")
	}
}

// The preference is asymmetric: a member that promised a HIGHER-id
// initiator's ballot does not defer — the lowest live voter goes first.
func TestTerminationNoDeferenceToHigherInitiator(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S1", Seq: 22}
	p, a := prepare3PC(t, r, "S2", tx)
	r.down["S1"] = true
	r.states["S3"] = StatePrepared

	if resp := p.HandleTermQuery(tx, model.Ballot{N: 5, Site: "S3"}); !resp.Accepted {
		t.Fatalf("promise refused: %+v", resp)
	}
	cr := newBallotCounter(r)
	if !p.Resolve(context.Background(), cr, tx) {
		t.Fatal("preferred (lowest live) initiator deferred")
	}
	if q, _ := cr.counts(); q == 0 {
		t.Error("no election traffic from the preferred initiator")
	}
	if !a.wasAborted(tx) {
		t.Error("termination outcome not applied")
	}
}

// Concurrent terminations must converge — and with the leader preference,
// cheaply: racing initiators stop outbidding each other once they promise
// the preferred (lowest-id) member's ballot, so the electorate burns a
// bounded number of ballots instead of duelling round after round.
func TestConcurrentTerminationsConverge(t *testing.T) {
	r := newResolver()
	tx := model.TxID{Site: "S0", Seq: 23}
	voters := []model.SiteID{"S1", "S2", "S3"}
	parts := make(map[model.SiteID]*Participant, len(voters))
	apps := make(map[model.SiteID]*fakeApplier, len(voters))
	for _, self := range voters {
		a := newApplier()
		p := NewParticipant(self, wal.NewMemory(), a)
		v := p.HandlePrepare(wire.PrepareReq{
			Tx: tx, Coordinator: "S0",
			Participants: append([]model.SiteID{"S0"}, voters...),
			Voters:       voters,
			ThreePhase:   true,
			Writes:       []model.WriteRecord{{Item: "x", Value: 1, Version: 1}},
		})
		if !v.Yes {
			t.Fatalf("%s prepare vote = %+v", self, v)
		}
		r.addPeer(self, p)
		parts[self], apps[self] = p, a
	}
	r.down["S0"] = true // coordinator crashed before any pre-commit

	cr := newBallotCounter(r)
	var wg sync.WaitGroup
	for _, self := range voters {
		wg.Add(1)
		go func(p *Participant) {
			defer wg.Done()
			for !p.Resolve(context.Background(), cr, tx) {
				time.Sleep(time.Millisecond)
			}
		}(parts[self])
	}
	wg.Wait()

	for _, self := range voters {
		if !apps[self].wasAborted(tx) {
			t.Errorf("%s did not apply the abort", self)
		}
		if apps[self].wasCommitted(tx) {
			t.Errorf("%s committed against the electorate's abort", self)
		}
	}
	// Three racing initiators start at most one ballot each; the preference
	// caps the duel well below a multi-round bidding war.
	if _, b := cr.counts(); b > 2*len(voters) {
		t.Errorf("concurrent termination burned %d ballots, want <= %d", b, 2*len(voters))
	}
}

// TestTwoPCAsksOnlyUnvotedParticipants: participants that voted with their
// copy operation's reply (Request.Voted) are prepared already, so phase 1
// asks only the others — here S2; the coordinator S1 prepares with its
// decision — and they still hear the decision.
func TestTwoPCAsksOnlyUnvotedParticipants(t *testing.T) {
	f := newFakeCohort()
	appliers := map[model.SiteID]*fakeApplier{}
	for _, s := range []model.SiteID{"S1", "S2", "S3"} {
		appliers[s] = newApplier()
		f.add(s, appliers[s])
	}
	req := request("S1", "S2", "S3")
	req.Voted = []model.SiteID{"S3"}
	for _, s := range req.Voted {
		if v := f.participants[s].HandlePrepare(wire.PrepareReq{Tx: req.Tx, Coordinator: "S1", Writes: req.WritesFor(s)}); !v.Yes {
			t.Fatalf("%s voted no: %s", s, v.Reason)
		}
	}
	commit, err := runProtocol(t, TwoPC{}, f, req)
	if err != nil || !commit {
		t.Fatalf("commit = %v, %v", commit, err)
	}
	if f.prepares != 1 || f.homeCommits != 1 {
		t.Errorf("%d prepares sent, %d home commits; want 1 (the unvoted S2) and 1", f.prepares, f.homeCommits)
	}
	if f.decisions != 3 {
		t.Errorf("%d decisions sent, want 3", f.decisions)
	}
	for s, a := range appliers {
		if !a.wasCommitted(req.Tx) {
			t.Errorf("%s did not apply the commit", s)
		}
	}
}

// TestWithdrawAbortsVotedWithoutLogging: an abandoned attempt's voted
// participants hear abort and retire it, with no prepare round and no
// coordinator log (Withdraw takes none) — presumed abort answers anyone the
// message misses.
func TestWithdrawAbortsVotedWithoutLogging(t *testing.T) {
	f := newFakeCohort()
	a := newApplier()
	p := f.add("S2", a)
	tx := model.TxID{Site: "S1", Seq: 9}
	if v := p.HandlePrepare(wire.PrepareReq{Tx: tx, Coordinator: "S1", Writes: []model.WriteRecord{{Item: "x", Value: 1, Delta: true}}}); !v.Yes {
		t.Fatalf("prepare: %s", v.Reason)
	}
	if !Withdraw(f, testOpts, tx, []model.SiteID{"S2"})(context.Background(), true) {
		t.Fatal("withdraw reports a missing ack")
	}
	if !a.wasAborted(tx) || p.InDoubtCount() != 0 {
		t.Errorf("S2 aborted = %v, in doubt = %d; want aborted and nothing in doubt", a.wasAborted(tx), p.InDoubtCount())
	}
	if f.prepares != 0 || f.decisions != 1 || f.ends != 1 {
		t.Errorf("prepares/decisions/ends = %d/%d/%d, want 0/1/1", f.prepares, f.decisions, f.ends)
	}
	if p.DecisionCount() != 0 {
		t.Errorf("S2 keeps %d decisions after the end message, want 0", p.DecisionCount())
	}
}

// TestTwoPCHomePreparesWithDecision: a coordinator that is a participant
// holding writes gets no prepare; once the others voted yes it forces its
// prepared record and the commit decision in ONE append, before onDecision,
// and applies the commit. If another participant votes no, it forces nothing
// but the abort decision; if its own guards vote no, the cohort aborts.
// 3PC keeps the coordinator's ordinary prepare.
func TestTwoPCHomePreparesWithDecision(t *testing.T) {
	f := newFakeCohort()
	a := newApplier()
	home := f.add("S1", a)
	f.add("S2", newApplier())
	log := countingLog{Log: home.log}
	home.log = &log
	req := request("S1", "S2")
	commit, err := commitInline(TwoPC{}, f, &log, req, func(bool) {
		if log.batches != 1 || log.appends != 0 {
			t.Errorf("at the decision: %d batches, %d appends; want one batch", log.batches, log.appends)
		}
	})
	if err != nil || !commit {
		t.Fatalf("commit = %v, %v", commit, err)
	}
	if f.prepares != 1 || f.homeCommits != 1 || !a.wasCommitted(req.Tx) {
		t.Errorf("%d prepares, %d home commits, home committed %v; want 1, 1, true", f.prepares, f.homeCommits, a.wasCommitted(req.Tx))
	}
	recs, _ := home.log.ReadAll()
	if len(recs) < 2 || recs[0].Type != wal.RecPrepared || recs[1].Type != wal.RecDecision || !recs[1].Commit {
		t.Errorf("home log %+v, want prepared then commit decision", recs)
	}

	for _, no := range []model.SiteID{"S2", "S1"} {
		f := newFakeCohort()
		appliers := map[model.SiteID]*fakeApplier{"S1": newApplier(), "S2": newApplier()}
		for s, a := range appliers {
			f.add(s, a)
		}
		f.voteNo[no] = true
		log := f.participants["S1"].log
		commit, err := commitInline(TwoPC{}, f, log, req, nil)
		if commit || model.CauseOf(err) != model.AbortACP {
			t.Fatalf("%s votes no: commit = %v, %v", no, commit, err)
		}
		recs, _ := log.ReadAll()
		for _, r := range recs {
			if r.Type == wal.RecPrepared || (r.Type == wal.RecDecision && r.Commit) {
				t.Errorf("%s votes no: home logged %+v", no, r)
			}
		}
		if !appliers["S1"].wasAborted(req.Tx) || !appliers["S2"].wasAborted(req.Tx) {
			t.Errorf("%s votes no: not everyone aborted", no)
		}
	}

	f = newFakeCohort()
	for _, s := range []model.SiteID{"S1", "S2"} {
		f.add(s, newApplier())
	}
	req.Voters = req.Participants
	if commit, err := commitInline(ThreePC{}, f, wal.NewMemory(), req, nil); err != nil || !commit {
		t.Fatalf("3pc: commit = %v, %v", commit, err)
	}
	if f.prepares != 2 || f.homeCommits != 0 {
		t.Errorf("3pc: %d prepares, %d home commits; want 2 and 0", f.prepares, f.homeCommits)
	}
}

// countingLog counts a log's single appends and batches.
type countingLog struct {
	wal.Log
	appends, batches int
}

func (l *countingLog) Append(r wal.Record) error {
	l.appends++
	return l.Log.Append(r)
}

func (l *countingLog) AppendBatch(recs []wal.Record) error {
	l.batches++
	return l.Log.AppendBatch(recs)
}
