package site

import (
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// BenchmarkServeCopyBatch measures contended saturation throughput of the
// copy-wave serve path: open-loop feeders hammer one hot item with encoded
// one-read CopyBatch requests, each served through Site.serve on the
// feeder's goroutine — decode, site-state snapshot, release-tombstone
// checks, clock witness, CC admission and reply body, all colliding on the
// site mutex, the Lamport clock and the CC manager. Timestamp-ordering CC
// keeps admission O(1) with no per-transaction lock state, so iterations
// are flat in b.N. allocs/op is the machine-invariant half: the served path
// must not grow an allocation per wave.
func BenchmarkServeCopyBatch(b *testing.B) {
	req := wire.CopyBatchReq{
		Tx:  model.TxID{Site: "C1", Seq: 1},
		TS:  model.Timestamp{Time: 1, Site: "C1"},
		Ops: []model.Op{model.Read("hot")},
	}
	cat := schema.NewCatalog()
	cat.Sites["S1"] = schema.SiteInfo{ID: "S1"}
	cat.PlaceCopies("hot", 100, "S1")
	cat.Protocols.CCP = "tso"
	st, err := New(Config{ID: "S1", Net: simnet.New(simnet.Config{}), Catalog: cat})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	pay := req.AppendTo(nil)

	// Contention needs far more outstanding requests than cores: feeders
	// are the concurrency the hot item actually sees.
	if n := runtime.GOMAXPROCS(0); n < 8 {
		b.SetParallelism(16 * 8 / n)
	} else {
		b.SetParallelism(16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := st.serve("C1", 0, wire.KindCopyBatch, pay); err != nil {
				b.Error(err)
			}
		}
	})
}
