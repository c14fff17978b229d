package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func openSeg(t *testing.T, dir string, opts SegmentOptions) *SegmentedLog {
	t.Helper()
	l, err := OpenSegmented(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendTxn appends a Prepared+Decision pair for one transaction.
func appendTxn(t *testing.T, l Log, seq uint64, commit bool) {
	t.Helper()
	if err := l.Append(sampleRecord(seq)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecDecision, Tx: model.TxID{Site: "S1", Seq: seq}, Commit: commit}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedRoundTripBothCodecs: records survive the segment codec, read
// back both from the open log and after a reopen. The "binary" row is the
// one record codec; the JSON row that ran beside it is gone.
func TestSegmentedRoundTripBothCodecs(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		l := openSeg(t, dir, SegmentOptions{})
		want := []Record{
			sampleRecord(1),
			{Type: RecDecision, Tx: model.TxID{Site: "S1", Seq: 1}, Commit: true},
			{Type: RecEnd, Tx: model.TxID{Site: "S1", Seq: 1}},
			{Type: RecCheckpoint, Horizon: 4},
		}
		for _, r := range want {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		check := func(got []Record, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].LSN != uint64(i+1) {
					t.Errorf("record %d: LSN = %d, want %d", i, got[i].LSN, i+1)
				}
				got[i].LSN = 0
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
		}
		check(l.ReadAll())
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen: scan rebuilds the sequence and the records survive.
		l2 := openSeg(t, dir, SegmentOptions{})
		defer l2.Close()
		check(l2.ReadAll())
		if got := l2.DurableLSN(); got != 4 {
			t.Errorf("DurableLSN after reopen = %d, want 4", got)
		}
	})
}

func TestSegmentedRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	for seq := uint64(1); seq <= 40; seq++ {
		appendTxn(t, l, seq, true)
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", segs)
	}
	before := l.SizeBytes()
	horizon := l.DurableLSN() + 1

	removed, err := l.Compact(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Compact removed no segments")
	}
	if after := l.SizeBytes(); after >= before {
		t.Errorf("SizeBytes did not shrink: %d -> %d", before, after)
	}
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 80 {
		t.Errorf("ReadAll after compaction returned %d records, want far fewer than 80", len(recs))
	}
	for _, r := range recs {
		if r.LSN >= horizon {
			t.Errorf("record %d at/above horizon %d unexpectedly present", r.LSN, horizon)
		}
	}
	// Appends keep working and LSNs keep increasing after compaction.
	appendTxn(t, l, 99, true)
	if got := l.DurableLSN(); got != 82 {
		t.Errorf("DurableLSN after post-compaction appends = %d, want 82", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen across the LSN gap left by compaction.
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs2, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs2 {
		if r.Type == RecPrepared && r.Tx.Seq == 99 {
			found = true
		}
	}
	if !found {
		t.Error("post-compaction append lost across reopen")
	}
	if got := l2.DurableLSN(); got != 82 {
		t.Errorf("DurableLSN after reopen = %d, want 82", got)
	}
}

func TestSegmentedCompactionPinsInDoubt(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	defer l.Close()
	// An in-doubt transaction in the very first segment: prepared, never
	// decided.
	orphan := model.TxID{Site: "S1", Seq: 1000}
	if err := l.Append(Record{Type: RecPrepared, Tx: orphan, Coordinator: "S2",
		Writes: []model.WriteRecord{{Item: "x", Value: 7, Version: 3}}}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 40; seq++ {
		appendTxn(t, l, seq, true)
	}
	segsBefore := l.Segments()
	removed, err := l.Compact(l.DurableLSN() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || removed >= segsBefore-1 {
		t.Fatalf("removed %d of %d segments; the pinned one must survive", removed, segsBefore)
	}
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Type == RecPrepared && r.Tx == orphan {
			found = true
		}
	}
	if !found {
		t.Fatal("in-doubt Prepared record was compacted away")
	}
	// Once decided, the pin lifts and a later compaction removes it.
	if err := l.Append(Record{Type: RecDecision, Tx: orphan, Commit: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	recs, err = l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == RecPrepared && r.Tx == orphan {
			t.Error("decided transaction's Prepared record still pinned")
		}
	}
}

func TestSegmentedTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	for seq := uint64(1); seq <= 5; seq++ {
		appendTxn(t, l, seq, true)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := paths[len(paths)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final frame mid-payload.
	if err := os.Truncate(last, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("after torn tail: %d records, want 9", len(recs))
	}
	// The log accepts appends after truncation.
	appendTxn(t, l2, 6, true)
	recs, err = l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("after post-tear appends: %d records, want 11", len(recs))
	}
}

// TestSegmentedCorruptCRCDetected proves positive corruption detection: a
// bit flipped inside a fully framed record — one that still decodes — is
// caught by the checksum, not by parse failure.
func TestSegmentedCorruptCRCDetected(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	for seq := uint64(1); seq <= 5; seq++ {
		appendTxn(t, l, seq, true)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Locate the second frame and flip a payload byte in the middle of it —
	// far from the tail, so torn-tail tolerance cannot mask the damage.
	firstLen := binary.LittleEndian.Uint32(b[segHeaderSize : segHeaderSize+4])
	second := segHeaderSize + frameHeaderSize + int(firstLen)
	secondLen := binary.LittleEndian.Uint32(b[second : second+4])
	b[second+frameHeaderSize+int(secondLen)/2] ^= 0x01
	if err := os.WriteFile(paths[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSegmented(dir, SegmentOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt record: err = %v, want ErrCorrupt", err)
	}
}

// TestSegmentedRejectsForeignFiles: the log opens only segments it wrote. A
// headerless file (such as a JSON-lines log) and a segment header naming a
// codec other than binary both fail the open instead of being guessed at.
func TestSegmentedRejectsForeignFiles(t *testing.T) {
	jsonLines := []byte(`{"Type":1,"Tx":{"Site":"S1","Seq":1}}` + "\n" + `{"Type":2,"Tx":{"Site":"S1","Seq":1},"Commit":true}` + "\n")
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	hdr[16] = codecIDBinary + 1
	otherCodec := append(hdr[:], jsonLines...)
	for name, content := range map[string][]byte{"headerless": jsonLines, "other codec": otherCodec} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), content, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenSegmented(dir, SegmentOptions{}); err == nil {
			l.Close()
			t.Errorf("%s: open succeeded, want an error", name)
		}
	}
}

func TestSegmentedGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 1024})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(w*per + i + 1)
				if err := l.Append(sampleRecord(seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("got %d records, want %d", len(recs), workers*per)
	}
	seen := make(map[uint64]bool)
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d not dense", i, r.LSN)
		}
		if seen[r.Tx.Seq] {
			t.Fatalf("duplicate record for seq %d", r.Tx.Seq)
		}
		seen[r.Tx.Seq] = true
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedLazyRecords: a Lazy record is durable when its append
// returns, but it starts no force-write cycle of its own — alone it waits
// out the linger, and next to an eager append it shares that append's cycle.
func TestSegmentedLazyRecords(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{Sync: true})
	defer l.Close()
	lazy := func(seq uint64) Record {
		return Record{Type: RecEnd, Tx: model.TxID{Site: "S1", Seq: seq}, Lazy: true}
	}

	start := time.Now()
	if err := l.Append(lazy(1)); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < lazyLinger {
		t.Errorf("a lone lazy append returned after %v, before the %v linger", waited, lazyLinger)
	}
	if flushes, records := l.BatchStats(); flushes != 1 || records != 1 {
		t.Fatalf("after a lone lazy append: %d flushes, %d records; want 1 and 1", flushes, records)
	}

	// Park a lazy request, then an eager one: one cycle forces both.
	reqs := make([]*segReq, 2)
	for i, r := range []Record{lazy(2), sampleRecord(3)} {
		payload, metas := marshalFrames([]Record{r})
		reqs[i] = &segReq{payload: payload, metas: metas, lazy: r.Lazy, done: make(chan error, 1)}
	}
	for _, req := range reqs {
		l.reqCh <- req
	}
	for _, req := range reqs {
		if err := <-req.done; err != nil {
			t.Fatal(err)
		}
	}
	if flushes, records := l.BatchStats(); flushes != 2 || records != 3 {
		t.Errorf("lazy beside eager: %d flushes, %d records in total; want 2 and 3", flushes, records)
	}
	recs, err := l.ReadAll()
	if err != nil || len(recs) != 3 {
		t.Fatalf("read back %d records (%v), want 3", len(recs), err)
	}
}

func TestMemoryLogCompaction(t *testing.T) {
	l := NewMemory()
	orphan := model.TxID{Site: "M", Seq: 500}
	if err := l.Append(Record{Type: RecPrepared, Tx: orphan}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		appendTxn(t, l, seq, true)
	}
	sizeBefore := l.SizeBytes()
	horizon := l.DurableLSN() + 1
	removed, err := l.Compact(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 20 {
		t.Errorf("removed %d records, want 20 (all but the pinned prepare)", removed)
	}
	if l.SizeBytes() >= sizeBefore {
		t.Errorf("SizeBytes did not shrink: %d -> %d", sizeBefore, l.SizeBytes())
	}
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Tx != orphan {
		t.Fatalf("retained records = %+v, want only the in-doubt prepare", recs)
	}
	// Deciding the orphan lifts the pin.
	if err := l.Append(Record{Type: RecDecision, Tx: orphan, Commit: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	if n := l.Len(); n != 0 {
		t.Errorf("after deciding the orphan and compacting: %d records retained", n)
	}
}

func TestBinaryCodecCompactness(t *testing.T) {
	r := sampleRecord(42)
	bin := appendRecord(nil, &r)
	js, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Errorf("binary encoding (%dB) not smaller than the record's JSON form (%dB)", len(bin), len(js))
	}
	got, err := decodeRecord(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("binary round trip: got %+v, want %+v", got, r)
	}
}

func TestBinaryCodecRejectsTruncation(t *testing.T) {
	r := sampleRecord(7)
	payload := appendRecord(nil, &r)
	for cut := 1; cut < len(payload); cut += 3 {
		if _, err := decodeRecord(payload[:cut]); err == nil {
			// Trailing fields (horizon) default to zero, so very deep cuts
			// may legitimately parse; only complain when the cut removes
			// required structure.
			if cut < len(payload)-2 {
				t.Errorf("Decode of %d/%d bytes succeeded", cut, len(payload))
			}
		}
	}
}

func TestSegmentedAppendAfterCloseFails(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecord(1)); err == nil {
		t.Fatal("append after Close should fail")
	}
}

// TestSegmentedReopen: a closed segmented log reopens in place — the records
// forced before the close are read back, appends work again and continue the
// LSN sequence — and an open log refuses to be reopened.
func TestSegmentedReopen(t *testing.T) {
	for _, noGroup := range []bool{false, true} {
		l := openSeg(t, t.TempDir(), SegmentOptions{NoGroupCommit: noGroup})
		appendTxn(t, l, 1, true)
		if err := l.Reopen(); err == nil {
			t.Fatal("Reopen of an open log succeeded")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Reopen(); err != nil {
			t.Fatal(err)
		}
		appendTxn(t, l, 2, false)
		recs, err := l.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 4 || recs[3].LSN != 4 || recs[3].Tx.Seq != 2 {
			t.Fatalf("after reopen: %d records, last %+v; want 4 ending at LSN 4 of tx 2", len(recs), recs[len(recs)-1])
		}
		if got := l.DurableLSN(); got != 4 {
			t.Errorf("DurableLSN = %d, want 4", got)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentedNoGroupCommit(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{NoGroupCommit: true})
	defer l.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		appendTxn(t, l, seq, true)
	}
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
}

func TestSegmentNameOrdering(t *testing.T) {
	// Zero-padded names must sort numerically for LSNs up to 2^64-1.
	if segName(9) >= segName(10) || segName(99999999999) >= segName(100000000000) {
		t.Error("segment names do not sort numerically")
	}
	if fmt.Sprintf("%020d", uint64(1<<63)) != segName(1 << 63)[:20] {
		t.Error("segment name truncates large LSNs")
	}
}

// --- sparse (record-granular) pin compaction ---

// One orphan among heavy decided traffic: compaction must not retain the
// orphan's whole segment — it rewrites it down to the pinned record, with
// the original LSN preserved across the rewrite and across a reopen.
func TestCompactionRewritesPinnedSegmentSparse(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	orphan := model.TxID{Site: "S1", Seq: 1000}
	if err := l.Append(Record{Type: RecPrepared, Tx: orphan, Coordinator: "S2",
		Writes: []model.WriteRecord{{Item: "x", Value: 7, Version: 3}}}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 40; seq++ {
		appendTxn(t, l, seq, true)
	}
	before := l.SizeBytes()
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Rewrites(); got != 1 {
		t.Fatalf("Rewrites = %d, want 1 (the orphan's segment)", got)
	}
	if after := l.SizeBytes(); after >= before/4 {
		t.Errorf("sparse rewrite kept %d of %d bytes; pinning should be record-granular", after, before)
	}
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var kept *Record
	for i := range recs {
		if recs[i].Type == RecPrepared && recs[i].Tx == orphan {
			kept = &recs[i]
		}
	}
	if kept == nil {
		t.Fatal("pinned record lost in sparse rewrite")
	}
	if kept.LSN != 1 {
		t.Errorf("pinned record LSN = %d after rewrite, want 1", kept.LSN)
	}
	if len(kept.Writes) != 1 || kept.Writes[0].Value != 7 {
		t.Errorf("pinned record payload mangled: %+v", kept)
	}

	// The sparse segment must survive a reopen byte-exactly.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openSeg(t, dir, SegmentOptions{})
	recs2, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs2 {
		if r.Type == RecPrepared && r.Tx == orphan && r.LSN == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("sparse segment unreadable after reopen")
	}
	// The reopened log re-derives the pin; once decided, a later compaction
	// drops the sparse segment entirely.
	if err := l2.Append(Record{Type: RecDecision, Tx: orphan, Commit: false}); err != nil {
		t.Fatal(err)
	}
	appendTxn(t, l2, 99, true) // seal progress past the decision
	if _, err := l2.Compact(l2.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	recs3, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs3 {
		// The decision itself sits in the active tail; only the pin must go.
		if r.Type == RecPrepared && r.Tx == orphan {
			t.Error("decided orphan's Prepared record still retained")
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Compaction-bound: with K orphans scattered across many segments of decided
// filler, retained sealed-log content is exactly the K pinned records — not
// K whole segments.
func TestCompactionRetentionBoundedByPinnedRecords(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	defer l.Close()
	const orphans = 5
	var seq uint64
	for o := 0; o < orphans; o++ {
		if err := l.Append(Record{Type: RecPrepared, Tx: model.TxID{Site: "S9", Seq: uint64(o)}, Coordinator: "S2",
			Writes: []model.WriteRecord{{Item: "y", Value: int64(o), Version: 1}}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			seq++
			appendTxn(t, l, seq, true)
		}
	}
	sealedLast := l.DurableLSN() // active-tail records stay regardless
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Rewrites(); got == 0 {
		t.Fatal("no sparse rewrites happened; test setup did not span segments")
	}
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var pinned, fillerBelowTail int
	activeFirst := uint64(0)
	// Records in the still-active segment are untouched by compaction; find
	// where it starts so the bound only covers sealed territory.
	if segs := l.Segments(); segs > 0 {
		activeFirst = sealedLast // conservative: only count well below the tail
	}
	for _, r := range recs {
		if r.Tx.Site == "S9" {
			pinned++
			continue
		}
		if r.LSN < activeFirst-20 { // clearly inside sealed, compacted range
			fillerBelowTail++
		}
	}
	if pinned != orphans {
		t.Errorf("retained %d pinned records, want %d", pinned, orphans)
	}
	if fillerBelowTail > 24 { // at most one segment's worth beside the tail
		t.Errorf("%d unpinned filler records retained in sealed segments; retention must be bounded by pinned records", fillerBelowTail)
	}
}

// A crash between a sparse rewrite's rename and the removal of the original
// leaves both files; reopening must keep the dense superset, delete the
// redundant sparse leftover, and clean stray rewrite temp files.
func TestSparseRewriteCrashLeftoverRecovered(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	// Orphan NOT first in its segment, so the rewrite changes the file name.
	appendTxn(t, l, 1, true)
	orphan := model.TxID{Site: "S1", Seq: 1000}
	if err := l.Append(Record{Type: RecPrepared, Tx: orphan, Coordinator: "S2"}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 40; seq++ {
		appendTxn(t, l, seq, true)
	}
	// Snapshot the dense segment that holds the orphan (the first one).
	paths, err := listSegments(dir)
	if err != nil || len(paths) < 2 {
		t.Fatalf("segments = %v, %v", paths, err)
	}
	densePath := paths[0]
	dense, err := os.ReadFile(densePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	if l.Rewrites() != 1 {
		t.Fatalf("Rewrites = %d, want 1", l.Rewrites())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// "Crash" reconstruction: the dense original reappears next to the
	// sparse rewrite (rename done, removal lost), plus a stray temp file.
	if err := os.WriteFile(densePath, dense, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk"+segTmpSuffix), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, r := range recs {
		if r.Type == RecPrepared && r.Tx == orphan {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("orphan record appears %d times after leftover recovery, want exactly 1", found)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segTmpSuffix) {
			t.Errorf("stray rewrite temp file %s not cleaned at open", e.Name())
		}
	}
}

// The redundant-sparse sentinel now travels wrapped in segment context,
// like every other scan error. The recovery path must match it with
// errors.Is: identity comparison only ever worked because the sentinel
// happened to be returned bare, and a reopen that misclassifies the
// leftover refuses to open the log at all.
func TestRedundantSparseSentinelArrivesWrapped(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	appendTxn(t, l, 1, true)
	orphan := model.TxID{Site: "S1", Seq: 1000}
	if err := l.Append(Record{Type: RecPrepared, Tx: orphan, Coordinator: "S2"}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 40; seq++ {
		appendTxn(t, l, seq, true)
	}
	paths, err := listSegments(dir)
	if err != nil || len(paths) < 2 {
		t.Fatalf("segments = %v, %v", paths, err)
	}
	densePath := paths[0]
	dense, err := os.ReadFile(densePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	if l.Rewrites() != 1 {
		t.Fatalf("Rewrites = %d, want 1", l.Rewrites())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash reconstruction: dense original back beside the sparse rewrite.
	if err := os.WriteFile(densePath, dense, 0o644); err != nil {
		t.Fatal(err)
	}

	// Drive the scan exactly like OpenSegmented does and catch the error
	// the redundant sparse leftover produces.
	paths, err = listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	scanner := &SegmentedLog{nextLSN: 1, pins: newPinTracker()}
	var redundantErr error
	for i, path := range paths {
		m, _, err := scanner.scanSegment(path, i == len(paths)-1)
		if err != nil {
			redundantErr = err
			break
		}
		scanner.nextLSN = m.last + 1
	}
	if redundantErr == nil {
		t.Fatal("no scan error; expected the sparse leftover to be reported redundant")
	}
	if redundantErr == errRedundantSparse { //rainbowlint:allow errcompare — this asserts the sentinel IS wrapped
		t.Fatal("sentinel returned bare; it must be wrapped in segment context")
	}
	if !errors.Is(redundantErr, errRedundantSparse) {
		t.Fatalf("scan error %v does not wrap errRedundantSparse", redundantErr)
	}

	// And the real open path classifies it correctly: the leftover is
	// dropped and the log opens.
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	if _, err := l2.ReadAll(); err != nil {
		t.Fatal(err)
	}
}
