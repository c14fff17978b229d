package site

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// BenchmarkPipelineThroughput measures contended-shard saturation
// throughput of the copy-operation command path: open-loop feeders hammer
// one hot item with already-decoded one-read CopyBatch requests (payload
// decode is identical in both designs and runs embarrassingly parallel on
// transport goroutines, so it is excluded to keep the shard path itself in
// focus).
// "sync" is the pre-pipeline design: every request captures the site-state
// snapshot and runs the full synchronous serve path on its own goroutine,
// all of them colliding on the site snapshot mutex, the release-tombstone
// map, the Lamport clock and the CC manager. "pipelined" demuxes requests onto the item
// shard's single-writer pipeline — feeders block only on queue
// backpressure, so the sequencer drains full batches and pays the
// snapshot, tombstone scan and clock witness once per batch, admitting
// each operation with the non-blocking TryRead. Timestamp-ordering CC
// keeps admission O(1) with no per-transaction lock state, so iterations
// are flat in b.N.
func BenchmarkPipelineThroughput(b *testing.B) {
	req := wire.CopyBatchReq{
		Tx:  model.TxID{Site: "C1", Seq: 1},
		TS:  model.Timestamp{Time: 1, Site: "C1"},
		Ops: []model.Op{model.Read("hot")},
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"sync", true}, {"pipelined", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cat := schema.NewCatalog()
			cat.Sites["S1"] = schema.SiteInfo{ID: "S1"}
			cat.PlaceCopies("hot", 100, "S1")
			cat.Protocols.CCP = "tso"
			st, err := New(Config{
				ID: "S1", Net: simnet.New(simnet.Config{}), Catalog: cat,
				Pipeline: schema.PipelinePolicy{Disable: mode.disable},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()

			var pending sync.WaitGroup
			reply := func(_ wire.MsgKind, _ wire.Body, err error) {
				if err != nil {
					b.Error(err)
				}
				pending.Done()
			}
			var submit func()
			if p := st.pipe.Load(); p != nil {
				sh := int(shard.Hash(req.Ops[0].Item)) & (p.Shards() - 1)
				op := copyOp{tx: req.Tx, ts: req.TS, ops: req.Ops, reply: reply}
				submit = func() {
					pending.Add(1)
					if err := p.Submit(st.lifeCtx, sh, op); err != nil {
						pending.Done()
						b.Error(err)
					}
				}
			} else {
				// The pre-pipeline serve path: every request snapshots the
				// site state under s.mu and admits on its own goroutine.
				pay := wire.Payload{Bytes: req.AppendTo(nil)}
				submit = func() {
					if _, _, err := st.serve("C1", 0, wire.KindCopyBatch, pay); err != nil {
						b.Error(err)
					}
				}
			}

			// Contention needs far more outstanding requests than cores:
			// feeders are the queue depth the hot shard actually sees.
			if n := runtime.GOMAXPROCS(0); n < 8 {
				b.SetParallelism(16 * 8 / n)
			} else {
				b.SetParallelism(16)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					submit()
				}
			})
			pending.Wait() // drain the queued tail before the timer stops
			if ps, _ := st.PipelineStats(); ps.Batches > 0 {
				b.ReportMetric(float64(ps.Submitted)/float64(ps.Batches), "ops/batch")
			}
		})
	}
}
