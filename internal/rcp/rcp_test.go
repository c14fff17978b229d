package rcp

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/schema"
)

// fakeAccess is an in-memory CopyAccess: each site holds a copy with a
// value and version; sites can be marked down or CC-rejecting; every copy
// operation is counted (the message-economy assertions in these tests mirror
// experiment E2).
type fakeAccess struct {
	local model.SiteID

	mu     sync.Mutex
	copies map[model.SiteID]struct {
		val int64
		ver model.Version
	}
	down     map[model.SiteID]bool
	ccReject map[model.SiteID]bool
	ops      int
	perSite  map[model.SiteID]int
	// batches records every CopyBatch received, per site, in arrival order;
	// onBatch, when set, is told of each arrival. finals lists the sites sent
	// a final batch; a site in refuseFold refuses its fold.
	batches    map[model.SiteID][][]model.Op
	onBatch    func(model.SiteID)
	finals     []model.SiteID
	refuseFold map[model.SiteID]bool
	// legs records the Leg each site's batches were sent with; a site in
	// wouldBlock refuses a no-wait batch.
	legs       map[model.SiteID][]Leg
	wouldBlock map[model.SiteID]bool
	// shipped records every CopyBatch received, across sites, in arrival
	// order.
	shipped []shipment
}

// shipment is one CopyBatch as the fake received it.
type shipment struct {
	site model.SiteID
	ops  []model.Op
	leg  Leg
}

func newFake(local model.SiteID, sites ...model.SiteID) *fakeAccess {
	f := &fakeAccess{
		local: local,
		copies: make(map[model.SiteID]struct {
			val int64
			ver model.Version
		}),
		down:       make(map[model.SiteID]bool),
		ccReject:   make(map[model.SiteID]bool),
		perSite:    make(map[model.SiteID]int),
		batches:    make(map[model.SiteID][][]model.Op),
		refuseFold: make(map[model.SiteID]bool),
		legs:       make(map[model.SiteID][]Leg),
		wouldBlock: make(map[model.SiteID]bool),
	}
	for _, s := range sites {
		f.copies[s] = struct {
			val int64
			ver model.Version
		}{val: 10, ver: 0}
	}
	return f
}

func (f *fakeAccess) set(site model.SiteID, val int64, ver model.Version) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.copies[site] = struct {
		val int64
		ver model.Version
	}{val, ver}
}

func (f *fakeAccess) Local() model.SiteID { return f.local }

// fakeIncarnation is the incarnation number every fake site reports (the
// session-recording tests assert it round-trips).
const fakeIncarnation = 7

// CopyBatch answers like a site does: a down site gives no answer at all; a
// site that would block refuses a no-wait batch; a CC-rejecting one fails the
// first operation and does not run the rest; a final batch whose operations
// all succeeded is released, or refused; a vote batch that succeeded votes.
func (f *fakeAccess) CopyBatch(_ context.Context, site model.SiteID, _ *Session, ops []model.Op, leg Leg) (BatchReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops += len(ops)
	f.perSite[site] += len(ops)
	f.batches[site] = append(f.batches[site], ops)
	f.legs[site] = append(f.legs[site], leg)
	f.shipped = append(f.shipped, shipment{site, ops, leg})
	final := leg.Final
	if final {
		f.finals = append(f.finals, site)
	}
	if f.onBatch != nil {
		f.onBatch(site)
	}
	if f.down[site] {
		return BatchReply{}, model.Abortf(model.AbortRCP, "site %s unreachable", site)
	}
	if leg.NoWait && f.wouldBlock[site] {
		return BatchReply{}, ErrWouldBlock
	}
	rep := BatchReply{Results: make([]CopyResult, len(ops)), Incarnation: fakeIncarnation}
	for i := range rep.Results {
		switch {
		case !f.ccReject[site]:
			rep.Results[i] = CopyResult{Value: f.copies[site].val, Version: f.copies[site].ver}
		case i == 0:
			rep.Results[i].Err = model.Abortf(model.AbortCC, "rejected at %s", site)
		default:
			rep.Results[i].Err = errors.New("not run")
		}
	}
	if final && !f.ccReject[site] {
		if f.refuseFold[site] {
			return BatchReply{}, model.Abortf(model.AbortACP, "epoch fence at %s", site)
		}
		rep.Released = true
	}
	rep.Voted = leg.Vote && !f.ccReject[site]
	return rep, nil
}

func meta3() schema.ItemMeta {
	return schema.ItemMeta{
		Item:        "x",
		Votes:       map[model.SiteID]int{"S1": 1, "S2": 1, "S3": 1},
		ReadQuorum:  2,
		WriteQuorum: 2,
	}
}

func sess() *Session {
	return NewSession(model.TxID{Site: "S1", Seq: 1}, model.Timestamp{Time: 1, Site: "S1"})
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"rowa", "qc", ""} {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if name == "" && p.Name() != "qc" {
			t.Error("default RCP should be qc")
		}
	}
	if _, err := New("chain"); err == nil {
		t.Error("unknown RCP accepted")
	}
}

// --- ROWA ---

func TestROWAReadUsesOneCopyPreferLocal(t *testing.T) {
	f := newFake("S2", "S1", "S2", "S3")
	s := sess()
	v, err := ROWA.Read(context.Background(), f, s, meta3())
	if err != nil || v != 10 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if f.ops != 1 || f.perSite["S2"] != 1 {
		t.Errorf("ROWA read used %d ops (%v), want 1 local", f.ops, f.perSite)
	}
	p := s.Participants()
	if len(p) != 1 || p[0] != "S2" {
		t.Errorf("participants = %v", p)
	}
}

func TestROWAReadFailsOverToNextCopy(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S1"] = true
	v, err := ROWA.Read(context.Background(), f, sess(), meta3())
	if err != nil || v != 10 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if f.ops != 2 {
		t.Errorf("ops = %d, want 2 (failover)", f.ops)
	}
}

func TestROWAReadAllDown(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	for s := range f.copies {
		f.down[s] = true
	}
	_, err := ROWA.Read(context.Background(), f, sess(), meta3())
	if model.CauseOf(err) != model.AbortRCP {
		t.Fatalf("want RCP abort, got %v", err)
	}
}

func TestROWAReadCCRejectionPropagates(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.ccReject["S1"] = true
	_, err := ROWA.Read(context.Background(), f, sess(), meta3())
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("CC rejection must not be routed around: %v", err)
	}
	if f.ops != 1 {
		t.Errorf("ops = %d: ROWA retried after CC rejection", f.ops)
	}
}

func TestROWAWriteTouchesAllCopies(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.set("S2", 5, 7) // stale copies with differing versions
	s := sess()
	if err := ROWA.Write(context.Background(), f, s, meta3(), 42); err != nil {
		t.Fatal(err)
	}
	if f.ops != 3 {
		t.Errorf("ops = %d, want 3 (write-all)", f.ops)
	}
	for _, site := range []model.SiteID{"S1", "S2", "S3"} {
		w := s.WritesFor(site)
		if len(w) != 1 || w[0].Value != 42 || w[0].Version != 8 {
			t.Errorf("%s writes = %v (want version max+1 = 8)", site, w)
		}
	}
}

func TestROWAWriteFailsIfAnyCopyDown(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S3"] = true
	err := ROWA.Write(context.Background(), f, sess(), meta3(), 42)
	if model.CauseOf(err) != model.AbortRCP {
		t.Fatalf("ROWA write with a down copy must RCP-abort: %v", err)
	}
}

func TestROWAWriteCCWins(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S3"] = true
	f.ccReject["S2"] = true
	err := ROWA.Write(context.Background(), f, sess(), meta3(), 1)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("CC rejection should take precedence: %v", err)
	}
}

// --- QC ---

func TestQCReadUsesQuorumMessages(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	s := sess()
	v, err := QC.Read(context.Background(), f, s, meta3())
	if err != nil || v != 10 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if f.ops != 2 {
		t.Errorf("ops = %d, want read-quorum size 2", f.ops)
	}
	if len(s.Participants()) != 2 {
		t.Errorf("participants = %v", s.Participants())
	}
}

func TestQCReadReturnsMaxVersionValue(t *testing.T) {
	f := newFake("S3", "S1", "S2", "S3")
	f.set("S3", 10, 0) // local copy is stale
	f.set("S1", 99, 5)
	f.set("S2", 99, 5)
	// Local-first preference picks S3 plus one other; the max-version value
	// must win regardless of which copies answer.
	v, err := QC.Read(context.Background(), f, sess(), meta3())
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Errorf("read = %d, want max-version value 99", v)
	}
}

func TestQCReadRoutesAroundFailure(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S2"] = true
	v, err := QC.Read(context.Background(), f, sess(), meta3())
	if err != nil || v != 10 {
		t.Fatalf("read = %d, %v", v, err)
	}
	// 2 first round (S1,S2) + 1 replacement (S3).
	if f.ops != 3 {
		t.Errorf("ops = %d, want 3", f.ops)
	}
}

func TestQCReadQuorumUnreachable(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S2"] = true
	f.down["S3"] = true
	_, err := QC.Read(context.Background(), f, sess(), meta3())
	if model.CauseOf(err) != model.AbortRCP {
		t.Fatalf("want RCP abort, got %v", err)
	}
}

func TestQCReadSingleSiteMinorityFails(t *testing.T) {
	// Read quorum 2 with only one live site: must abort even though the
	// live site keeps answering.
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S2"] = true
	f.down["S3"] = true
	_, err := QC.Read(context.Background(), f, sess(), meta3())
	if err == nil {
		t.Fatal("minority read quorum built")
	}
}

func TestQCWriteInstallsMaxPlusOneAtQuorum(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.set("S2", 5, 7)
	s := sess()
	if err := QC.Write(context.Background(), f, s, meta3(), 42); err != nil {
		t.Fatal(err)
	}
	if f.ops != 2 {
		t.Errorf("ops = %d, want write-quorum size 2", f.ops)
	}
	// Exactly the quorum members carry write records, version = 7+1.
	recs := 0
	for _, site := range []model.SiteID{"S1", "S2", "S3"} {
		for _, w := range s.WritesFor(site) {
			recs++
			if w.Version != 8 || w.Value != 42 {
				t.Errorf("%s: record %+v, want v8", site, w)
			}
		}
	}
	if recs != 2 {
		t.Errorf("write records at %d sites, want 2", recs)
	}
}

func TestQCWriteCCRejectionStops(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.ccReject["S2"] = true
	err := QC.Write(context.Background(), f, sess(), meta3(), 1)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("want CC abort, got %v", err)
	}
}

func TestQCWeightedVotes(t *testing.T) {
	// S1 carries 3 votes: alone it is a write quorum.
	meta := schema.ItemMeta{
		Item:        "x",
		Votes:       map[model.SiteID]int{"S1": 3, "S2": 1, "S3": 1},
		ReadQuorum:  3,
		WriteQuorum: 3,
	}
	f := newFake("S1", "S1", "S2", "S3")
	s := sess()
	if err := QC.Write(context.Background(), f, s, meta, 9); err != nil {
		t.Fatal(err)
	}
	if f.ops != 1 {
		t.Errorf("ops = %d, want 1 (weighted quorum met by local site)", f.ops)
	}
	if len(s.WritesFor("S1")) != 1 || len(s.WritesFor("S2")) != 0 {
		t.Error("write records misplaced")
	}
}

func TestQCWriteMinorityPartitionAborts(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S2"] = true
	f.down["S3"] = true
	err := QC.Write(context.Background(), f, sess(), meta3(), 1)
	if model.CauseOf(err) != model.AbortRCP {
		t.Fatalf("minority write must RCP-abort: %v", err)
	}
}

// --- Session ---

func TestSessionParticipantsSortedAndDeduped(t *testing.T) {
	s := sess()
	s.Touch("S3")
	s.Touch("S1")
	s.Touch("S3")
	s.RecordWrite("S2", model.WriteRecord{Item: "x", Value: 1, Version: 1})
	p := s.Participants()
	if len(p) != 3 || p[0] != "S1" || p[1] != "S2" || p[2] != "S3" {
		t.Errorf("participants = %v", p)
	}
}

func TestSessionLaterWriteReplacesEarlier(t *testing.T) {
	s := sess()
	s.RecordWrite("S1", model.WriteRecord{Item: "x", Value: 1, Version: 1})
	s.RecordWrite("S1", model.WriteRecord{Item: "x", Value: 2, Version: 2})
	s.RecordWrite("S1", model.WriteRecord{Item: "y", Value: 3, Version: 1})
	w := s.WritesFor("S1")
	if len(w) != 2 {
		t.Fatalf("writes = %v", w)
	}
	if w[0].Item != "x" || w[0].Value != 2 || w[1].Item != "y" {
		t.Errorf("writes = %v", w)
	}
}

func TestSessionHasWrites(t *testing.T) {
	s := sess()
	if len(s.WriteSites()) > 0 {
		t.Error("fresh session has writes")
	}
	s.Touch("S1")
	if len(s.WriteSites()) > 0 {
		t.Error("touch should not create writes")
	}
	s.RecordWrite("S1", model.WriteRecord{Item: "x"})
	if len(s.WriteSites()) == 0 {
		t.Error("no write sites after RecordWrite")
	}
}

func TestQCRewriteSticksToOriginalQuorum(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S3"] = true
	sess := NewSession(model.TxID{Site: "S1", Seq: 1}, model.Timestamp{Time: 1, Site: "S1"})
	meta := meta3()

	// First write lands on {S1, S2} (S3 down).
	if err := QC.Write(context.Background(), f, sess, meta, 100); err != nil {
		t.Fatal(err)
	}
	sites, rec, ok := sess.WriteQuorum("x")
	if !ok || len(sites) != 2 || rec.Value != 100 {
		t.Fatalf("first write quorum = %v rec=%+v", sites, rec)
	}

	// Second write of the same item: re-pre-writes exactly the original
	// quorum with the new value, keeping the install version — never a
	// fresh quorum that could strand a stale record on an old member.
	f.down["S3"] = false
	if err := QC.Write(context.Background(), f, sess, meta, 200); err != nil {
		t.Fatal(err)
	}
	sites2, rec2, _ := sess.WriteQuorum("x")
	if len(sites2) != 2 || sites2[0] != sites[0] || sites2[1] != sites[1] {
		t.Fatalf("rewrite quorum changed: %v -> %v", sites, sites2)
	}
	if rec2.Value != 200 || rec2.Version != rec.Version {
		t.Fatalf("rewrite record = %+v, want value 200 at version %d", rec2, rec.Version)
	}
	for _, site := range []model.SiteID{"S1", "S2", "S3"} {
		w := sess.WritesFor(site)
		holds := len(w) == 1 && w[0].Value == 200
		inQuorum := site == sites[0] || site == sites[1]
		if holds != inQuorum {
			t.Errorf("site %s: writes=%v, in original quorum=%v", site, w, inQuorum)
		}
	}
}

func TestQCRewriteAbortsIfOriginalQuorumMemberDown(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S3"] = true
	sess := NewSession(model.TxID{Site: "S1", Seq: 2}, model.Timestamp{Time: 2, Site: "S1"})
	meta := meta3()
	if err := QC.Write(context.Background(), f, sess, meta, 100); err != nil {
		t.Fatal(err)
	}
	// The original quorum loses a member; a fresh {S2,S3} quorum would be
	// available, but diverting to it would strand S1's stale record — the
	// rewrite must abort instead.
	f.down["S3"] = false
	f.down["S1"] = true
	if err := QC.Write(context.Background(), f, sess, meta, 200); err == nil {
		t.Fatal("rewrite diverted to a fresh quorum instead of aborting")
	}
}

// --- Wave ---

func waveItems() map[model.ItemID]schema.ItemMeta {
	out := make(map[model.ItemID]schema.ItemMeta)
	for _, item := range []model.ItemID{"a", "b", "c"} {
		m := meta3()
		m.Item = item
		out[item] = m
	}
	return out
}

// TestWaveShipsOneOrderedBatchPerSite: every quorum member gets the program's
// copy operations as ONE batch, sorted by item with program order kept among
// the operations on one item, and no operation travels on its own.
func TestWaveShipsOneOrderedBatchPerSite(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	s := sess()
	ops := []model.Op{model.Write("c", 1), model.Read("a"), model.Write("a", 2), model.Read("c"), model.Write("a", 3), model.Read("b")}
	program := append([]model.Op(nil), ops...)
	reads, err := wave(QC, f, s, waveItems(), ops, threePC)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 3 || reads["a"] != 10 {
		t.Errorf("reads = %v", reads)
	}
	for i := range ops {
		if ops[i] != program[i] {
			t.Fatalf("Wave reordered the caller's slice: %v", ops)
		}
	}
	want := []model.Op{model.Read("a"), model.Write("a", 2), model.Write("a", 3), model.Read("b"), model.Write("c", 1), model.Read("c")}
	for _, site := range []model.SiteID{"S1", "S2"} {
		if len(f.batches[site]) != 1 {
			t.Fatalf("%s received %d batches, want 1", site, len(f.batches[site]))
		}
		got := f.batches[site][0]
		if len(got) != len(want) {
			t.Fatalf("%s batch = %v, want %v", site, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s batch = %v, want %v", site, got, want)
			}
		}
	}
	if len(f.batches["S3"]) != 0 {
		t.Errorf("beyond the two batches: S3 got %d", len(f.batches["S3"]))
	}
	// The repeated write kept its quorum and install version, last value wins.
	for _, site := range []model.SiteID{"S1", "S2"} {
		w := s.WritesFor(site)
		if len(w) != 2 || w[0] != (model.WriteRecord{Item: "a", Value: 3, Version: 1}) || w[1] != (model.WriteRecord{Item: "c", Value: 1, Version: 1}) {
			t.Errorf("%s writes = %+v", site, w)
		}
	}
	if s.IncarnationFor("S2") != fakeIncarnation {
		t.Error("the batch's incarnation was not recorded")
	}
}

// TestWaveROWAReadsLocallyWritesEverywhere: ROWA's rule carries over — reads
// stay in the home site's batch, writes and adds go to every site's.
func TestWaveROWAReadsLocallyWritesEverywhere(t *testing.T) {
	f := newFake("S2", "S1", "S2", "S3")
	if _, err := wave(ROWA, f, sess(), waveItems(), []model.Op{model.Read("a"), model.Write("b", 1), model.Add("c", 1)}, threePC); err != nil {
		t.Fatal(err)
	}
	for site, want := range map[model.SiteID]int{"S1": 2, "S2": 3, "S3": 2} {
		if len(f.batches[site]) != 1 || len(f.batches[site][0]) != want {
			t.Errorf("%s batches = %v, want one of %d operations", site, f.batches[site], want)
		}
	}
}

// TestWaveReplacesSilentMemberPerOperation: a first-round member that gives
// no answer is replaced by the ordinary replacement round, one operation at a
// time, and ends up a stray to release — not a participant.
func TestWaveReplacesSilentMemberPerOperation(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S2"] = true
	f.set("S3", 99, 4)
	s := sess()
	reads, err := wave(QC, f, s, waveItems(), []model.Op{model.Read("a"), model.Write("b", 5)}, threePC)
	if err != nil {
		t.Fatal(err)
	}
	if reads["a"] != 99 {
		t.Errorf("read a = %d, want the replacement member's newer 99", reads["a"])
	}
	if len(f.batches["S2"]) != 1 || len(f.batches["S3"]) != 2 || len(f.batches["S3"][0]) != 1 {
		t.Errorf("batches = %v, want one unanswered at S2 and two one-operation replacements at S3", f.batches)
	}
	if w := s.WritesFor("S3"); len(w) != 1 || w[0].Version != 5 {
		t.Errorf("S3 writes = %+v, want b at version 5", w)
	}
	if p := s.Participants(); len(p) != 2 || p[0] != "S1" || p[1] != "S3" {
		t.Errorf("participants = %v", p)
	}
	if st := s.Strays(); len(st) != 1 || st[0] != "S2" {
		t.Errorf("strays = %v, want the silent S2", st)
	}
}

// TestWaveCCRejectionDooms: a CC rejection inside one site's batch aborts the
// wave with that cause at once — the sites later in the order are never asked
// — and every site that was asked is on the session's release list.
func TestWaveCCRejectionDooms(t *testing.T) {
	f := newFake("S3", "S1", "S2", "S3") // home S3: quorum {S3, S1}, shipped S1 first
	f.ccReject["S1"] = true
	s := sess()
	_, err := wave(QC, f, s, waveItems(), []model.Op{model.Read("a"), model.Write("b", 5)}, threePC)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("err = %v, want the CC abort", err)
	}
	if len(f.batches["S1"]) != 1 || len(f.batches["S3"]) != 0 {
		t.Errorf("after the rejection: %d batches at S1, %d at S3; want the one rejected batch only", len(f.batches["S1"]), len(f.batches["S3"]))
	}
	if rel := append(s.Participants(), s.Strays()...); len(rel) != 1 || rel[0] != "S1" {
		t.Errorf("sites to release = %v, want the rejecting S1", rel)
	}
}

// TestWaveShipsInSiteOrder: the per-site batches leave one after another,
// lowest site first, wherever the home site falls in that order.
func TestWaveShipsInSiteOrder(t *testing.T) {
	for _, home := range []model.SiteID{"S1", "S2", "S3"} {
		f := newFake(home, "S1", "S2", "S3")
		var order []model.SiteID
		f.onBatch = func(site model.SiteID) { order = append(order, site) }
		if _, err := wave(ROWA, f, sess(), waveItems(), []model.Op{model.Write("a", 1), model.Add("b", 1)}, threePC); err != nil {
			t.Fatal(err)
		}
		if len(order) != 3 || order[0] != "S1" || order[1] != "S2" || order[2] != "S3" {
			t.Errorf("home %s: batches shipped in order %v, want [S1 S2 S3]", home, order)
		}
	}
}

// TestPreferredOrderRotatesFromHome pins the preference order: the item's
// sorted copy sites rotated to start at the home, or — for a home holding no
// copy — at the first copy site after it in sort order.
func TestPreferredOrderRotatesFromHome(t *testing.T) {
	meta := schema.ItemMeta{Item: "x", Votes: map[model.SiteID]int{"S1": 1, "S2": 1, "S4": 1}}
	for home, want := range map[model.SiteID][]model.SiteID{
		"S1": {"S1", "S2", "S4"},
		"S2": {"S2", "S4", "S1"},
		"S4": {"S4", "S1", "S2"},
		"S3": {"S4", "S1", "S2"}, // no copy: starts after it
		"S0": {"S1", "S2", "S4"}, // no copy, sorts first
		"S9": {"S1", "S2", "S4"}, // no copy, sorts last: wraps around
	} {
		if got := preferredOrder(home, meta); !slices.Equal(got, want) {
			t.Errorf("home %s: preferred order %v, want %v", home, got, want)
		}
	}
}

// TestWaveFoldsReadOnlyLastLeg: a read-only wave marks its last leg final
// when that leg is remote; the released site leaves the session, so only the
// home (and any earlier remote leg) is left for the commit protocol. Under
// majority quorums of three that is homes S1 and S2; S3's partner S1 ships
// first and keeps its vote. A wave that writes never folds.
func TestWaveFoldsReadOnlyLastLeg(t *testing.T) {
	reads := []model.Op{model.Read("a"), model.Read("b"), model.Read("c")}
	for _, c := range []struct {
		home         model.SiteID
		ops          []model.Op
		final        []model.SiteID
		participants []model.SiteID
	}{
		{"S1", reads, []model.SiteID{"S2"}, []model.SiteID{"S1"}},
		{"S2", reads, []model.SiteID{"S3"}, []model.SiteID{"S2"}},
		{"S3", reads, nil, []model.SiteID{"S1", "S3"}},
		{"S1", []model.Op{model.Read("a"), model.Write("b", 1)}, nil, []model.SiteID{"S1", "S2"}},
	} {
		f := newFake(c.home, "S1", "S2", "S3")
		s := sess()
		if _, err := wave(QC, f, s, waveItems(), c.ops, threePC); err != nil {
			t.Fatalf("home %s %v: %v", c.home, c.ops, err)
		}
		if !slices.Equal(f.finals, c.final) {
			t.Errorf("home %s %v: final legs %v, want %v", c.home, c.ops, f.finals, c.final)
		}
		if p := s.Participants(); !slices.Equal(p, c.participants) {
			t.Errorf("home %s %v: participants %v, want %v", c.home, c.ops, p, c.participants)
		}
		if st := s.Strays(); len(st) != 0 {
			t.Errorf("home %s %v: strays %v, want none", c.home, c.ops, st)
		}
	}
}

// TestWaveFoldsOnlyAfterCleanLegs: the last leg folds only when every earlier
// leg answered cleanly. With the first leg's site silent, the last leg goes
// out as an ordinary batch — the replacement round that follows would acquire
// locks after it — and every site that answered keeps its vote.
func TestWaveFoldsOnlyAfterCleanLegs(t *testing.T) {
	items := map[model.ItemID]schema.ItemMeta{}
	for _, item := range []model.ItemID{"a", "b"} {
		items[item] = schema.ItemMeta{Item: item, Votes: map[model.SiteID]int{"S2": 1, "S3": 1, "S4": 1}, ReadQuorum: 2, WriteQuorum: 2}
	}
	ops := []model.Op{model.Read("a"), model.Read("b")}

	f := newFake("S1", "S2", "S3", "S4") // the home holds no copy: both legs remote
	s := sess()
	if _, err := wave(QC, f, s, items, ops, threePC); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.finals, []model.SiteID{"S3"}) || !slices.Equal(s.Participants(), []model.SiteID{"S2"}) {
		t.Errorf("all up: final legs %v, participants %v; want [S3] and [S2]", f.finals, s.Participants())
	}

	f = newFake("S1", "S2", "S3", "S4")
	f.down["S2"] = true
	s = sess()
	if _, err := wave(QC, f, s, items, ops, threePC); err != nil {
		t.Fatal(err)
	}
	if len(f.finals) != 0 {
		t.Errorf("S2 silent: final legs %v, want none", f.finals)
	}
	if p, st := s.Participants(), s.Strays(); !slices.Equal(p, []model.SiteID{"S3", "S4"}) || !slices.Equal(st, []model.SiteID{"S2"}) {
		t.Errorf("S2 silent: participants %v, strays %v; want [S3 S4] and [S2]", p, st)
	}
}

// TestWaveFoldRefusalDooms: a site that refuses the fold dooms the wave with
// its ACP abort, and stays on the session's release list with the home.
func TestWaveFoldRefusalDooms(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.refuseFold["S2"] = true
	s := sess()
	_, err := wave(QC, f, s, waveItems(), []model.Op{model.Read("a"), model.Read("b")}, threePC)
	if model.CauseOf(err) != model.AbortACP {
		t.Fatalf("err = %v, want the refusal's ACP abort", err)
	}
	if rel := append(s.Participants(), s.Strays()...); !slices.Equal(rel, []model.SiteID{"S1", "S2"}) {
		t.Errorf("sites to release = %v, want the home S1 and the refusing S2", rel)
	}
}

// adds is an add-only program over every item of waveItems.
var adds = []model.Op{model.Add("c", 1), model.Add("a", 2), model.Add("b", 3), model.Add("a", 4)}

// TestWaveAddOnlyShipsAtOnceAndVotes: on a first 2PC attempt an add-only
// wave ships every leg as a no-wait batch; each remote leg votes, carrying the
// planned sites as its cohort, and is recorded as voted. The home's leg never votes
// (its vote is the commit protocol's, and local).
func TestWaveAddOnlyShipsAtOnceAndVotes(t *testing.T) {
	for _, home := range []model.SiteID{"S1", "S2", "S3"} {
		f := newFake(home, "S1", "S2", "S3")
		s := sess()
		if _, err := wave(QC, f, s, waveItems(), adds, first2PC); err != nil {
			t.Fatalf("home %s: %v", home, err)
		}
		all := []model.SiteID{"S1", "S2", "S3"}
		var remote []model.SiteID
		for _, site := range all {
			legs := f.legs[site]
			if len(legs) != 1 || !legs[0].NoWait || !slices.Equal(legs[0].Cohort, all) {
				t.Fatalf("home %s: %s legs %+v, want one no-wait leg with cohort %v", home, site, legs, all)
			}
			if legs[0].Vote != (site != home) {
				t.Errorf("home %s: %s vote = %v", home, site, legs[0].Vote)
			}
			if site != home {
				remote = append(remote, site)
			}
		}
		if v := s.Voted(); !slices.Equal(v, remote) {
			t.Errorf("home %s: voted %v, want %v", home, v, remote)
		}
		if p := s.Participants(); !slices.Equal(p, all) {
			t.Errorf("home %s: participants %v, want %v", home, p, all)
		}
	}
}

// TestWaveAddOnlyWouldBlock: a leg that would wait refuses the whole wave
// with ErrWouldBlock; the sites that voted stay recorded for the abort, and
// every site asked is on the session's release list.
func TestWaveAddOnlyWouldBlock(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.wouldBlock["S2"] = true
	s := sess()
	if _, err := wave(QC, f, s, waveItems(), adds, first2PC); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	if v := s.Voted(); !slices.Equal(v, []model.SiteID{"S3"}) {
		t.Errorf("voted %v, want [S3]", v)
	}
	if rel := append(s.Participants(), s.Strays()...); len(rel) != 3 {
		t.Errorf("sites to release = %v, want all three", rel)
	}
}

// TestWaveModes: a 2PC rerun ships an add-only wave's legs in site order,
// waiting where they must, and its remote legs vote; 3PC lets none vote; a
// program that is not add-only ships in order whatever the attempt, and under
// 2PC only its last leg votes.
func TestWaveModes(t *testing.T) {
	for _, c := range []struct {
		mode   waveHow
		ops    []model.Op
		noWait bool
		vote   []bool // S2's and S3's legs
	}{
		{rerun2PC, adds, false, []bool{true, true}},
		{threePC, adds, false, []bool{false, false}},
		{first2PC, []model.Op{model.Add("a", 1), model.Write("b", 2)}, false, []bool{false, true}},
		{rerun2PC, []model.Op{model.Add("a", 1), model.Read("b")}, false, []bool{false, true}},
		{threePC, []model.Op{model.Add("a", 1), model.Write("b", 2)}, false, []bool{false, false}},
	} {
		f := newFake("S1", "S1", "S2", "S3")
		var order []model.SiteID
		f.onBatch = func(site model.SiteID) { order = append(order, site) }
		if _, err := wave(ROWA, f, sess(), waveItems(), c.ops, c.mode); err != nil {
			t.Fatalf("mode %v %v: %v", c.mode, c.ops, err)
		}
		if !slices.Equal(order, []model.SiteID{"S1", "S2", "S3"}) {
			t.Errorf("mode %v %v: shipped %v, want site order", c.mode, c.ops, order)
		}
		for i, site := range order[1:] {
			if leg := f.legs[site][0]; leg.NoWait != c.noWait || leg.Vote != c.vote[i] {
				t.Errorf("mode %v %v: %s leg %+v, want no-wait %v vote %v", c.mode, c.ops, site, leg, c.noWait, c.vote[i])
			}
		}
	}
}

// TestWaveLastLegVotesWithFloors: on a 2PC rerun, a wave that writes sends its
// remote last leg as a vote, carrying per operation the highest version the
// earlier legs reported; the site is recorded as voted. A last leg that
// carries no write folds instead, and an earlier leg never votes.
func TestWaveLastLegVotesWithFloors(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.set("S1", 10, 4)
	f.set("S2", 10, 2)
	s := sess()
	ops := []model.Op{model.Read("a"), model.Write("a", 1), model.Write("b", 2)}
	if _, err := wave(QC, f, s, waveItems(), ops, rerun2PC); err != nil {
		t.Fatal(err)
	}
	leg := f.legs["S2"][0]
	if !leg.Vote || leg.Final || !slices.Equal(leg.Floors, []model.Version{4, 4, 4}) {
		t.Errorf("S2 leg %+v, want a vote with floors [4 4 4] (S1's versions)", leg)
	}
	if v := s.Voted(); !slices.Equal(v, []model.SiteID{"S2"}) {
		t.Errorf("voted %v, want [S2]", v)
	}
	if _, rec, _ := s.WriteQuorum("a"); rec.Version != 5 {
		t.Errorf("a installs at version %d, want max(4, 2)+1 = 5", rec.Version)
	}

	// ROWA reads locally, so the last leg of a read-and-write program that
	// writes elsewhere carries only the write; one that reads only folds.
	f = newFake("S1", "S1", "S2", "S3")
	items := waveItems()
	items["c"] = schema.ItemMeta{Item: "c", Votes: map[model.SiteID]int{"S1": 1, "S2": 1}, ReadQuorum: 1, WriteQuorum: 2}
	items["d"] = schema.ItemMeta{Item: "d", Votes: map[model.SiteID]int{"S3": 1}, ReadQuorum: 1, WriteQuorum: 1}
	s = sess()
	if _, err := wave(ROWA, f, s, items, []model.Op{model.Write("c", 1), model.Read("d")}, rerun2PC); err != nil {
		t.Fatal(err)
	}
	if leg := f.legs["S2"][0]; leg.Vote || leg.Final {
		t.Errorf("S2 (an earlier leg) %+v, want an ordinary batch", leg)
	}
	if leg := f.legs["S3"][0]; leg.Vote || !leg.Final {
		t.Errorf("S3 (a last leg with no write) %+v, want a fold", leg)
	}
	if p := s.Participants(); !slices.Equal(p, []model.SiteID{"S1", "S2"}) {
		t.Errorf("participants %v, want [S1 S2]: the folded S3 left", p)
	}
}

// TestWaveVoteLost: a voting leg that gets no reply ends the attempt with a
// VoteLostError naming the site, which stays recorded as voted so that
// abandoning the attempt withdraws it — no replacement round is run. With
// the site avoided, the rerun's first round picks around it.
func TestWaveVoteLost(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.down["S2"] = true
	s := sess()
	_, err := wave(QC, f, s, waveItems(), []model.Op{model.Write("a", 1)}, rerun2PC)
	var lost *VoteLostError
	if !errors.As(err, &lost) || lost.Site != "S2" {
		t.Fatalf("err = %v, want a VoteLostError at S2", err)
	}
	if v := s.Voted(); !slices.Equal(v, []model.SiteID{"S2"}) {
		t.Errorf("voted %v, want [S2]", v)
	}
	if f.perSite["S3"] != 0 {
		t.Errorf("S3 asked %d times: a replacement round ran", f.perSite["S3"])
	}

	s = sess()
	if _, err := wave(QC, f, s, waveItems(), []model.Op{model.Write("a", 1)}, rerun2PC.avoiding("S2")); err != nil {
		t.Fatal(err)
	}
	if leg := f.legs["S3"]; len(leg) != 1 || !leg[0].Vote {
		t.Errorf("S3 legs %+v, want one voting last leg", leg)
	}
	if len(f.legs["S2"]) != 1 {
		t.Errorf("S2 asked again on the rerun: %+v", f.legs["S2"])
	}

	// Under ROWA a write needs every copy: the avoided site is still asked,
	// in a replacement round after the wave, so the last leg must not vote
	// (or fold) ahead of it.
	f = newFake("S1", "S1", "S2", "S3")
	s = sess()
	if _, err := wave(ROWA, f, s, waveItems(), []model.Op{model.Write("a", 1)}, rerun2PC.avoiding("S2")); err != nil {
		t.Fatal(err)
	}
	if legs := f.legs["S3"]; len(legs) != 1 || legs[0].Vote || legs[0].Final {
		t.Errorf("S3 legs %+v, want one ordinary batch", legs)
	}
	if legs := f.legs["S2"]; len(legs) != 1 || legs[0].Vote {
		t.Errorf("S2 legs %+v, want one ordinary replacement batch", legs)
	}
}

// TestWaveHomeFirst: a first 2PC attempt that is not add-only and
// whose home's leg would sort last runs that leg first; every remote leg
// ships after it in no-wait mode, and the last one votes with floors taken
// from the versions the home reported (or folds, carrying no write). A
// refusal ends the attempt with ErrWouldBlock. The 2PC rerun, 3PC and
// add-only waves keep their shape, and so does a wave whose
// home does not sort last.
func TestWaveHomeFirst(t *testing.T) {
	rw := []model.Op{model.Read("a"), model.Write("b", 2)}
	for _, c := range []struct {
		name   string
		proto  Protocol
		home   model.SiteID
		mode   waveHow
		ops    []model.Op
		order  []model.SiteID // nil: shipped at once, in no set order
		noWait []model.SiteID
		first  bool // home-first
	}{
		{"qc-read-write", QC, "S3", first2PC, rw, []model.SiteID{"S3", "S1"}, []model.SiteID{"S1"}, true},
		{"qc-read-only", QC, "S3", first2PC, []model.Op{model.Read("a"), model.Read("b")}, []model.SiteID{"S3", "S1"}, []model.SiteID{"S1"}, true},
		{"rowa-write", ROWA, "S3", first2PC, rw, []model.SiteID{"S3", "S1", "S2"}, []model.SiteID{"S1", "S2"}, true},
		{"qc-rerun", QC, "S3", rerun2PC, rw, []model.SiteID{"S1", "S3"}, nil, false},
		{"qc-3pc", QC, "S3", threePC, rw, []model.SiteID{"S1", "S3"}, nil, false},
		{"rowa-add-only", ROWA, "S3", first2PC, adds, nil, []model.SiteID{"S1", "S2", "S3"}, false},
		{"rowa-home-not-last", ROWA, "S2", first2PC, rw, []model.SiteID{"S1", "S2", "S3"}, nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFake(c.home, "S1", "S2", "S3")
			f.set(c.home, 10, 4)
			var order []model.SiteID
			f.onBatch = func(site model.SiteID) { order = append(order, site) }
			s := sess()
			plan := c.mode.plan(c.proto, f, waveItems(), c.ops)
			if _, err := c.proto.Wave(context.Background(), f, s, plan); err != nil {
				t.Fatal(err)
			}
			if homeFirst := plan.Count == monitor.HomeFirstWaves; homeFirst != c.first {
				t.Errorf("session home-first = %v, want %v", homeFirst, c.first)
			}
			if c.order != nil && !slices.Equal(order, c.order) {
				t.Fatalf("shipped %v, want %v", order, c.order)
			}
			for _, site := range order {
				if leg := f.legs[site][0]; leg.NoWait != slices.Contains(c.noWait, site) {
					t.Errorf("%s leg %+v, want no-wait %v", site, leg, !leg.NoWait)
				}
			}
			if !c.first {
				return
			}
			last := order[len(order)-1]
			leg := f.legs[last][0]
			if c.ops[len(c.ops)-1].Kind == model.OpRead {
				if !leg.Final || leg.Vote {
					t.Errorf("last leg %s %+v, want a fold", last, leg)
				}
				return
			}
			if !leg.Vote || len(leg.Floors) == 0 || slices.ContainsFunc(leg.Floors, func(v model.Version) bool { return v != 4 }) {
				t.Errorf("last leg %s %+v, want a vote with every floor 4 (the home's versions)", last, leg)
			}
			for _, site := range order[1 : len(order)-1] {
				if leg := f.legs[site][0]; leg.Vote || leg.Final {
					t.Errorf("earlier leg %s %+v, want an ordinary no-wait batch", site, leg)
				}
			}
			if _, rec, _ := s.WriteQuorum("b"); rec.Version != 5 {
				t.Errorf("b installs at version %d, want the home's 4 + 1", rec.Version)
			}
		})
	}

	// A remote leg that would wait refuses: the attempt ends with
	// ErrWouldBlock, and the home and the refusing site are left to release.
	f := newFake("S3", "S1", "S2", "S3")
	f.wouldBlock["S1"] = true
	s := sess()
	if _, err := wave(QC, f, s, waveItems(), rw, first2PC); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	if rel := append(s.Participants(), s.Strays()...); !slices.Equal(rel, []model.SiteID{"S1", "S3"}) {
		t.Errorf("sites to release = %v, want the home S3 and the refusing S1", rel)
	}
	if len(s.Voted()) != 0 {
		t.Errorf("voted %v after a refusal, want none", s.Voted())
	}
}
