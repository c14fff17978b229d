package wal

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// termRecords is a 3PC termination history: a prepared record carrying the
// electorate, an election promise, and an accepted pre-decision.
func termRecords() []Record {
	return []Record{
		{
			Type:         RecPrepared,
			Tx:           model.TxID{Site: "S1", Seq: 7},
			TS:           model.Timestamp{Time: 7, Site: "S1"},
			Coordinator:  "S1",
			Participants: []model.SiteID{"S1", "S2", "S3"},
			Voters:       []model.SiteID{"S1", "S2"},
			ThreePhase:   true,
			Writes:       []model.WriteRecord{{Item: "x", Value: 3, Version: 2}},
		},
		{Type: RecElect, Tx: model.TxID{Site: "S1", Seq: 7}, Ballot: model.Ballot{N: 2, Site: "S3"}},
		{Type: RecPreDecide, Tx: model.TxID{Site: "S1", Seq: 7}, Commit: true, Ballot: model.Ballot{N: 2, Site: "S3"}},
	}
}

// TestTermRecordsRoundTrip: the v2 fields (Voters, Ballot) survive the
// binary record codec through a segmented log.
func TestTermRecordsRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		l := openSeg(t, t.TempDir(), SegmentOptions{})
		defer l.Close()
		want := termRecords()
		for _, r := range want {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := l.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d records, want %d", len(got), len(want))
		}
		for i := range want {
			got[i].LSN = 0
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestBinaryCodecRefusesOtherLayouts: a record has one layout. A payload
// claiming version 1 or 2, or one with a byte left after the record, is
// refused with an error.
func TestBinaryCodecRefusesOtherLayouts(t *testing.T) {
	r := termRecords()[0]
	for _, c := range []struct {
		name    string
		payload func() []byte
	}{
		{"v1", func() []byte { p := appendRecord(nil, &r); p[0] = 1; return p }},
		{"v2", func() []byte { p := appendRecord(nil, &r); p[0] = 2; return p }},
		{"extra-byte", func() []byte { return append(appendRecord(nil, &r), 0) }},
	} {
		if got, err := decodeRecord(c.payload()); err == nil {
			t.Errorf("%s: decoded %+v, want an error", c.name, got)
		}
	}
	if _, err := decodeRecord(appendRecord(nil, &r)); err != nil {
		t.Errorf("the record itself: %v", err)
	}
}

// TestCompactionPinsTermRecords: an in-doubt transaction's Elect/PreDecide
// records must survive compaction exactly like its Prepared record — a
// recovered member rejoins termination FROM them — and all of them go once
// the transaction is decided below the horizon.
func TestCompactionPinsTermRecords(t *testing.T) {
	l := NewMemory()
	tx := model.TxID{Site: "S1", Seq: 7}
	for _, r := range termRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated decided traffic pushes the horizon up.
	other := model.TxID{Site: "S2", Seq: 1}
	l.Append(Record{Type: RecPrepared, Tx: other, Writes: []model.WriteRecord{{Item: "z", Value: 1, Version: 1}}}) //nolint:errcheck
	l.Append(Record{Type: RecDecision, Tx: other, Commit: true})                                                   //nolint:errcheck
	horizon := l.DurableLSN() + 1

	if _, err := l.Compact(horizon); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.ReadAll()
	var prepared, elect, predecide bool
	for _, r := range recs {
		if r.Tx != tx {
			continue
		}
		switch r.Type {
		case RecPrepared:
			prepared = true
		case RecElect:
			elect = true
		case RecPreDecide:
			predecide = true
		}
	}
	if !prepared || !elect || !predecide {
		t.Fatalf("compaction dropped in-doubt termination state: prepared=%v elect=%v predecide=%v (log %+v)",
			prepared, elect, predecide, recs)
	}

	// Decide + end: everything about tx is now compactable.
	l.Append(Record{Type: RecDecision, Tx: tx, Commit: true}) //nolint:errcheck
	l.Append(Record{Type: RecEnd, Tx: tx})                    //nolint:errcheck
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	recs, _ = l.ReadAll()
	for _, r := range recs {
		if r.Tx == tx {
			t.Fatalf("decided transaction's record survived compaction: %+v", r)
		}
	}
}
