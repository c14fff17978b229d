package wal

import (
	"os"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func sampleRecord(seq uint64) Record {
	return Record{
		Type:         RecPrepared,
		Tx:           model.TxID{Site: "S1", Seq: seq},
		TS:           model.Timestamp{Time: seq, Site: "S1"},
		Coordinator:  "S1",
		Participants: []model.SiteID{"S1", "S2"},
		Writes: []model.WriteRecord{
			{Item: "x", Value: int64(seq), Version: model.Version(seq)},
			{Item: "c", Value: 3, Version: model.Version(seq + 1), Delta: true},
		},
	}
}

func testLogBehaviour(t *testing.T, l Log) {
	t.Helper()
	recs := []Record{
		sampleRecord(1),
		{Type: RecDecision, Tx: model.TxID{Site: "S1", Seq: 1}, Commit: true},
		{Type: RecEnd, Tx: model.TxID{Site: "S1", Seq: 1}},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadAll returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		got[i].LSN = 0 // position, not payload: LSN-aware logs stamp it on reads
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestMemoryLog(t *testing.T) {
	testLogBehaviour(t, NewMemory())
}

// newestSegment returns the path of the highest-LSN segment in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := listSegments(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return paths[len(paths)-1]
}

// readSeqs reads the log back as the transaction sequence numbers of its
// records, in order.
func readSeqs(t *testing.T, l Log) []uint64 {
	t.Helper()
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seqs[i] = r.Tx.Seq
	}
	return seqs
}

// The TestFileLog* tests hold the on-disk log, SegmentedLog, to the Log
// contract the site relies on: replay, reopen, torn tails, close and group
// commit.

// rewriteTail rewrites the newest segment in dir as tear(its bytes), the way
// a crash mid-force leaves it.
func rewriteTail(t *testing.T, dir string, tear func([]byte) []byte) {
	t.Helper()
	seg := newestSegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, tear(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tornFrame is a frame header promising a 40-byte payload followed by only
// a few of those bytes: a force cut short mid-frame.
var tornFrame = []byte{40, 0, 0, 0, 1, 2, 3, 4, 2, 1}

func TestFileLog(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	defer l.Close()
	testLogBehaviour(t, l)
}

func TestFileLogSynced(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{Sync: true})
	defer l.Close()
	testLogBehaviour(t, l)
}

func TestMemoryLogCloseRejectsAppends(t *testing.T) {
	l := NewMemory()
	l.Append(sampleRecord(1))
	l.Close()
	if err := l.Append(sampleRecord(2)); err == nil {
		t.Error("append after close should fail")
	}
	// Reads still work: recovery reads the crashed site's log.
	recs, err := l.ReadAll()
	if err != nil || len(recs) != 1 {
		t.Errorf("ReadAll after close: %v, %d records", err, len(recs))
	}
	l.Reopen()
	if err := l.Append(sampleRecord(3)); err != nil {
		t.Errorf("append after Reopen failed: %v", err)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestMemoryLogIsolatesCallerSlices(t *testing.T) {
	l := NewMemory()
	writes := []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}
	l.Append(Record{Type: RecPrepared, Writes: writes})
	writes[0].Value = 999
	recs, _ := l.ReadAll()
	if recs[0].Writes[0].Value != 1 {
		t.Error("log shares memory with caller's slice")
	}
}

func TestAppendBatch(t *testing.T) {
	for name, open := range map[string]func(t *testing.T) Log{
		"memory": func(*testing.T) Log { return NewMemory() },
		"file":   func(t *testing.T) Log { return openSeg(t, t.TempDir(), SegmentOptions{}) },
	} {
		t.Run(name, func(t *testing.T) {
			l := open(t)
			defer l.Close()
			if err := l.AppendBatch(nil); err != nil {
				t.Errorf("empty batch: %v", err)
			}
			batch := []Record{sampleRecord(1), sampleRecord(2), sampleRecord(3)}
			if err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			recs, err := l.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				recs[i].LSN = 0
			}
			if len(recs) != 3 || !reflect.DeepEqual(recs, batch) {
				t.Errorf("ReadAll after AppendBatch: got %d records", len(recs))
			}
			bs, ok := l.(BatchStats)
			if !ok {
				t.Fatal("log should expose BatchStats")
			}
			flushes, records := bs.BatchStats()
			if flushes != 1 || records != 3 {
				t.Errorf("BatchStats = (%d, %d), want (1, 3)", flushes, records)
			}
		})
	}
}

func TestFileLogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	appendTxn(t, l, 1, true)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	if got := readSeqs(t, l2); !reflect.DeepEqual(got, []uint64{1, 1}) {
		t.Fatalf("after reopen: seqs %v, want [1 1]", got)
	}
	// Appends continue after the existing tail.
	if err := l2.Append(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Tx.Seq != 2 || recs[2].LSN != 3 {
		t.Errorf("after append: %d records; want 3 ending in tx 2 at LSN 3", len(recs))
	}
}

func TestFileLogTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: a partial frame at the tail.
	rewriteTail(t, dir, func(b []byte) []byte { return append(b, tornFrame...) })

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	if got := readSeqs(t, l2); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("torn tail should be ignored; got seqs %v", got)
	}
}

func TestFileLogAppendAfterCloseFails(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	l.Close()
	if err := l.Append(sampleRecord(1)); err == nil {
		t.Error("append after close should fail")
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
}

func TestFileLogGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{Sync: true})
	const appenders, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := l.Append(sampleRecord(uint64(g*1000 + i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != appenders*perG {
		t.Errorf("got %d records, want %d", len(recs), appenders*perG)
	}
	flushes, records := l.BatchStats()
	if records != appenders*perG {
		t.Errorf("BatchStats records = %d, want %d", records, appenders*perG)
	}
	if flushes == 0 || flushes > records {
		t.Errorf("BatchStats flushes = %d out of range (records %d)", flushes, records)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record survives the close and is replayed.
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	if got := len(readSeqs(t, l2)); got != appenders*perG {
		t.Errorf("after reopen: %d records, want %d", got, appenders*perG)
	}
}

// TestFileLogTornBatchTailRecovery simulates a crash mid-way through a
// group-commit batch flush: the final record is torn, replay must return
// every record completely written before the tear, and records appended
// after reopening over the tear must survive the next reopen.
func TestFileLogTornBatchTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]Record{sampleRecord(2), sampleRecord(3), sampleRecord(4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the batch: chop the tail mid-way through the last record's frame.
	rewriteTail(t, dir, func(b []byte) []byte { return b[:len(b)-17] })

	l2 := openSeg(t, dir, SegmentOptions{})
	if got := readSeqs(t, l2); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("torn batch tail: seqs %v, want [1 2 3]", got)
	}
	if err := l2.Append(sampleRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openSeg(t, dir, SegmentOptions{})
	defer l3.Close()
	if got := readSeqs(t, l3); !reflect.DeepEqual(got, []uint64{1, 2, 3, 5}) {
		t.Fatalf("append after a torn batch tail: seqs %v, want [1 2 3 5]", got)
	}
}

// TestFileLogReopenTruncatesTornTail checks that opening a log with a torn
// tail removes the tear before new appends: otherwise records written after
// the partial frame would be stranded beyond replay's stop-at-tear horizon
// and silently lost by the next recovery.
func TestFileLogReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	rewriteTail(t, dir, func(b []byte) []byte { return append(b, tornFrame...) }) // crash mid-force

	l2 := openSeg(t, dir, SegmentOptions{})
	if err := l2.Append(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3 := openSeg(t, dir, SegmentOptions{})
	defer l3.Close()
	if got := readSeqs(t, l3); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("post-tear append lost: got seqs %v, want [1 2]", got)
	}
}

// TestFileLogOpenDropsUnterminatedFinalRecord: a final frame missing only
// its last byte was never acknowledged (the force covers the whole frame),
// so open must drop it rather than let the next append glue onto it.
func TestFileLogOpenDropsUnterminatedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	rewriteTail(t, dir, func(b []byte) []byte { return b[:len(b)-1] })

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	if err := l2.Append(sampleRecord(3)); err != nil {
		t.Fatal(err)
	}
	if got := readSeqs(t, l2); !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("got seqs %v, want [1 3]", got)
	}
}

func TestFileLogNoGroupCommit(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{NoGroupCommit: true})
	defer l.Close()
	testLogBehaviour(t, l)
	flushes, records := l.BatchStats()
	if flushes != records {
		t.Errorf("direct path should force per record: flushes %d, records %d", flushes, records)
	}
}

func TestFileLogCloseDuringConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	var wg sync.WaitGroup
	accepted := make(chan uint64, 128)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				seq := uint64(g*100 + i)
				if err := l.Append(sampleRecord(seq)); err != nil {
					return // closed under us: acceptable
				}
				accepted <- seq
			}
		}(g)
	}
	l.Close()
	wg.Wait()
	close(accepted)
	want := make(map[uint64]bool)
	for seq := range accepted {
		want[seq] = true
	}
	// Every append that reported success must be durable.
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	got := make(map[uint64]bool)
	for _, seq := range readSeqs(t, l2) {
		got[seq] = true
	}
	for seq := range want {
		if !got[seq] {
			t.Errorf("record %d acknowledged but lost at close", seq)
		}
	}
	if len(want) == 0 {
		t.Log("close won the race before any append; nothing to verify")
	}
}

func TestRecTypeString(t *testing.T) {
	if RecPrepared.String() != "prepared" || RecDecision.String() != "decision" || RecEnd.String() != "end" {
		t.Error("record type names wrong")
	}
	if RecType(77).String() == "" {
		t.Error("unknown record type should render something")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	defer l.Close()
	n := 0
	f := func(seq uint64, item string, val int64, commit bool) bool {
		r := Record{
			Type:   RecDecision,
			Tx:     model.TxID{Site: "S", Seq: seq},
			Writes: []model.WriteRecord{{Item: model.ItemID(item), Value: val}},
			Commit: commit,
		}
		if err := l.Append(r); err != nil {
			return false
		}
		n++
		recs, err := l.ReadAll()
		if err != nil || len(recs) != n {
			return false
		}
		got := recs[n-1]
		return got.Tx == r.Tx && got.Commit == r.Commit &&
			len(got.Writes) == 1 && got.Writes[0] == r.Writes[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
