package rcp

import (
	"context"
	"testing"

	"repro/internal/model"
)

// BenchmarkWave measures the home's side of one wave over the in-memory fake,
// one program per commit path: plan, ship, resolve. allocs/op is the
// machine-invariant half: planning must not grow an allocation per wave.
func BenchmarkWave(b *testing.B) {
	for _, c := range []struct {
		name string
		home model.SiteID
		ops  []model.Op
	}{
		{"read-only-fold", "S1", []model.Op{model.Read("a"), model.Read("b")}},
		{"last-leg-vote", "S1", []model.Op{model.Read("a"), model.Write("b", 1)}},
		{"add-at-once", "S1", []model.Op{model.Add("a", 1), model.Add("b", 1)}},
		{"home-first", "S3", []model.Op{model.Read("a"), model.Write("b", 1)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := newFake(c.home, "S1", "S2", "S3")
			items := waveItems()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewSession(model.TxID{Site: c.home, Seq: uint64(i + 1)}, model.Timestamp{Time: uint64(i + 1), Site: c.home})
				plan := QC.Plan(c.ops, c.home, items, "", false, FirstAttempt)
				if _, err := QC.Wave(context.Background(), f, s, plan); err != nil {
					b.Fatal(err)
				}
				f.forget()
			}
		})
	}
}

// forget drops what the fake recorded, keeping the capacity, so that a
// benchmark loop does not count the fake's own bookkeeping.
func (f *fakeAccess) forget() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for site := range f.batches {
		f.batches[site] = f.batches[site][:0]
		f.legs[site] = f.legs[site][:0]
	}
	f.shipped, f.finals = f.shipped[:0], f.finals[:0]
}
