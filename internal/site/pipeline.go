package site

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cc"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/pipeline"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The copy-operation hot path (reads, pre-writes and pre-adds — the paper's
// RCP traffic, the bulk of every workload) runs through per-shard
// single-writer pipelines instead of the synchronous serve path: the
// transport hands the request to serveAsync, which decodes it and demuxes it
// by item shard onto a bounded queue; one sequencer goroutine per shard
// drains requests in batches and runs copyBatch, which pays the site-state
// snapshot, tombstone scans, clock witnessing and reply flush once per batch.
// Admission uses the CC managers' non-blocking Try* calls so a contended
// operation never stalls its whole shard: it spills to a goroutine running
// the blocking calls, exactly preserving the synchronous semantics.
//
// A request (KindCopyBatch) is a wave: one transaction's copy operations for
// this site, to be admitted in the order given — a one-shot transaction's
// whole share, or a single operation of the interactive path, which is a wave
// of one. A wave is queued on its first item's shard and admitted there as a
// unit — the CC managers are safe for concurrent use, so shard affinity is a
// locality matter only.
//
// Everything else (prepares, decisions, control traffic) keeps the
// synchronous path: those force WAL records under the checkpoint gate and
// already batch at the group-commit layer.

// copyOp is one queued wave. final marks a last leg that folds its read-only
// vote (see Site.fold); noWait a leg of an add-only wave; vote, cohort and
// floors a leg that votes with its reply (see Site.vote); epoch rides final
// and vote legs. tid carries the request's distributed-trace ID and enq its
// submit time (UnixNano; stamped only for traced requests, so the untraced
// hot path never reads the clock here).
type copyOp struct {
	tx     model.TxID
	ts     model.Timestamp
	ops    []model.Op
	final  bool
	noWait bool
	vote   bool
	cohort []model.SiteID
	floors []model.Version
	epoch  uint64
	reply  wire.ReplyFunc
	tid    trace.ID
	enq    int64
}

// decodeWave decodes a CopyBatch request into a copyOp.
func decodeWave(pay wire.Payload, op *copyOp) error {
	var req wire.CopyBatchReq
	if err := pay.Decode(&req); err != nil {
		return err
	}
	if len(req.Ops) == 0 {
		return fmt.Errorf("empty copy batch for %s", req.Tx)
	}
	op.tx, op.ts, op.ops, op.final, op.epoch = req.Tx, req.TS, req.Ops, req.Final, req.Epoch
	op.noWait, op.vote, op.cohort, op.floors = req.NoWait, req.Vote, req.Cohort, req.Floors
	return nil
}

// ccStack is the slice of site state a wave runs against, captured under
// s.mu in one go so the incarnation reported on the reply names the stack
// that actually protects the operations.
type ccStack struct {
	ccm         cc.Manager
	runCtx      context.Context
	lockTimeout time.Duration
	incarnation uint64
}

// stackLocked captures the current ccStack; the caller holds s.mu.
func (s *Site) stackLocked() ccStack {
	return ccStack{ccm: s.ccm, runCtx: s.runCtx, lockTimeout: s.timeouts.Lock, incarnation: s.incarnation}
}

// errNotRun is reported for the operations of a wave behind its first
// failure. It is deliberately not a protocol abort: if the failure was a CC
// rejection the transaction is doomed anyway, and if it was not, the home
// site must treat these operations like an unreachable copy and reroute.
var errNotRun = errors.New("not run: an earlier operation of the batch failed")

// admit runs ops[from:] through the CC manager in order, filling res. Each
// operation first tries the non-blocking Try* call; where that reports it
// would have to wait (having left no CC state behind), a blocking wave waits
// through the blocking call and a non-blocking one stops and returns the
// operation's index. All of a wave's waits at this site share ONE lock
// timeout, started at the first: the home site bounds the whole request with
// one attempt timeout, so a wave must fail as a clean CC lock-timeout abort
// before the home gives the site up for unreachable, however many of its
// operations had to wait. The first failure ends the wave: the operations
// after it are not run. admit returns len(ops) once every operation has a
// result.
func (st ccStack) admit(ctx context.Context, tx model.TxID, ts model.Timestamp, ops []model.Op, res []rcp.CopyResult, from int, block bool) int {
	var wctx context.Context // the wave's wait budget; nil until a wait is needed
	for i := from; i < len(ops); i++ {
		op, r := ops[i], &res[i]
		switch op.Kind {
		case model.OpRead:
			r.Value, r.Version, r.Err = st.ccm.TryRead(tx, ts, op.Item)
		case model.OpWrite:
			r.Version, r.Err = st.ccm.TryPreWrite(tx, ts, op.Item, op.Value)
		case model.OpAdd:
			r.Version, r.Err = st.ccm.TryPreAdd(tx, ts, op.Item, op.Value)
		default:
			r.Err = fmt.Errorf("invalid op kind %d", op.Kind)
		}
		if errors.Is(r.Err, cc.ErrWouldBlock) {
			if !block {
				r.Err = nil
				return i
			}
			if wctx == nil {
				var cancel context.CancelFunc
				wctx, cancel = context.WithTimeout(ctx, st.lockTimeout)
				defer cancel()
			}
			switch op.Kind {
			case model.OpRead:
				r.Value, r.Version, r.Err = st.ccm.Read(wctx, tx, ts, op.Item)
			case model.OpWrite:
				r.Version, r.Err = st.ccm.PreWrite(wctx, tx, ts, op.Item, op.Value)
			case model.OpAdd:
				r.Version, r.Err = st.ccm.PreAdd(wctx, tx, ts, op.Item, op.Value)
			}
		}
		if r.Err != nil {
			for j := i + 1; j < len(ops); j++ {
				res[j].Err = errNotRun
			}
			break
		}
	}
	return len(ops)
}

// finish is the shared tail of every wave, however it was admitted: a
// release that raced past the admission wins — undo and refuse; otherwise
// the reads enter the execution history and the results become the reply
// body, stamped with the site's Lamport time and the incarnation that
// protects the operations. A final wave whose operations all succeeded then
// folds the read-only vote in (Site.fold), a vote wave votes (Site.vote).
func (s *Site) finish(st ccStack, op *copyOp, res []rcp.CopyResult, raced bool, clock uint64) (wire.MsgKind, wire.Body, error) {
	if raced {
		st.ccm.Abort(op.tx)
		return 0, nil, errReleased(op.tx)
	}
	s.recordReads(op.tx, op.ops, res)
	resp := &wire.CopyBatchResp{Results: make([]wire.CopyResult, len(res)), Clock: clock, Incarnation: st.incarnation}
	failed := false
	for i, r := range res {
		if r.Err != nil {
			resp.Results[i].SetErr(r.Err)
			failed = true
			continue
		}
		resp.Results[i].Value, resp.Results[i].Version = r.Value, r.Version
	}
	if failed {
		return wire.KindCopyBatch, resp, nil
	}
	if op.final {
		if err := s.fold(st, op.tx, op.epoch); err != nil {
			return 0, nil, err
		}
		resp.Released = true
	}
	if op.vote {
		if err := s.vote(st, op, res); err != nil {
			return 0, nil, err
		}
		resp.Voted = true
	}
	return wire.KindCopyBatch, resp, nil
}

// refuseBlocked answers a no-wait wave that would have had to wait: it
// releases everything the transaction holds here — the operations admitted
// before the one that would wait — and refuses with WouldBlock, so the wave
// never waits while it holds anything.
func (s *Site) refuseBlocked(st ccStack, tx model.TxID, clock uint64) (wire.MsgKind, wire.Body, error) {
	st.ccm.Abort(tx)
	return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: clock, Incarnation: st.incarnation, WouldBlock: true}, nil
}

// fold is the read-only vote run at the end of a wave's final leg: the wave
// admitted the transaction's last operations here, which is its lock point,
// so its CC state here is released at once, exactly as a read-only
// HandlePrepare releases it (no tombstone: nothing of the transaction can
// follow). First the prepare's guards (Site.prepareGuard): the stack that
// admitted the operations must still be the site's current one (a rebuild
// racing the admission dropped their protection — the incarnation fence,
// checked here because the reply would otherwise vouch for the dead stack),
// the transaction must not predate the site's last live rebuild (the epoch
// fence), and it must not have been released here meanwhile (the release
// tombstone). A failed guard refuses the batch with an ACP abort, as a no
// vote would, and still releases.
func (s *Site) fold(st ccStack, tx model.TxID, epoch uint64) error {
	reason := s.prepareGuard(tx, st.incarnation, epoch, nil)
	st.ccm.Abort(tx)
	if reason != "" {
		return model.Abortf(model.AbortACP, "%s", reason)
	}
	return nil
}

// vote is the prepare run at the end of a leg that votes with its reply
// under 2PC — a remote leg of an add-only wave, or the last leg of a wave
// that writes: every operation of the leg is admitted here, and either an
// add's effect at this site depends on nothing outside it, or the leg is the
// transaction's lock point and carries the versions every other member
// reported (op.floors), so the site votes at once. It goes through
// votePrepare — the prepare's guards (the incarnation that admitted the
// operations, the epoch fence, the release tombstone, the intents) and the
// force of a prepared record, as one unit under the site gate — with the
// transaction's home as coordinator, the wave's planned sites as the
// participants and the leg's write set (legWrites). The unit is recorded as
// a "vote force" span on the leg's trace fragment. A no vote releases and
// refuses the batch with an ACP abort. vote waits for the gate, which a live
// rebuild holds while it drains the pipeline, so it must never run on a
// shard sequencer (see copyBatch).
func (s *Site) vote(st ccStack, op *copyOp, res []rcp.CopyResult) error {
	act := s.tracer.Join(op.tid, op.tx)
	sp := act.StartSpan(trace.StageWALAppend, "vote force")
	v := s.votePrepare(wire.PrepareReq{
		Tx:           op.tx,
		TS:           op.ts,
		Coordinator:  op.tx.Site,
		Participants: op.cohort,
		Writes:       legWrites(op.ops, res, op.floors),
		Epoch:        op.epoch,
		Incarnation:  st.incarnation,
	})
	sp.End()
	act.Finish()
	if !v.Yes {
		st.ccm.Abort(op.tx)
		return model.Abortf(model.AbortACP, "%s voted no: %s", s.id, v.Reason)
	}
	s.stats.Add(monitor.VotedLegs, 1)
	return nil
}

// legWrites is the write set a voting leg prepares, one record per item it
// writes or adds, in the leg's (item) order. Each operation installs at one
// past the higher of its floor (the highest version the wave's earlier legs
// reported for it; none is 0) and the version this copy reported — the
// version the home's perform computes over the same quorum. A repeated write
// keeps the first one's install version and takes the last one's value;
// adds merge into one delta record, summed, at the largest version.
func legWrites(ops []model.Op, res []rcp.CopyResult, floors []model.Version) []model.WriteRecord {
	var out []model.WriteRecord
	for i, op := range ops {
		if op.Kind == model.OpRead {
			continue
		}
		v := res[i].Version
		if i < len(floors) {
			v = max(v, floors[i])
		}
		v++
		j := slices.IndexFunc(out, func(w model.WriteRecord) bool { return w.Item == op.Item })
		switch {
		case j < 0:
			out = append(out, model.WriteRecord{Item: op.Item, Value: op.Value, Version: v, Delta: op.Kind == model.OpAdd})
		case op.Kind == model.OpAdd:
			out[j].Value += op.Value
			out[j].Version = max(out[j].Version, v)
		default:
			out[j].Value = op.Value
		}
	}
	return out
}

// recordReads enters a wave's successful reads in the execution history.
func (s *Site) recordReads(tx model.TxID, ops []model.Op, res []rcp.CopyResult) {
	for i, r := range res {
		if r.Err == nil && ops[i].Kind == model.OpRead {
			s.hist.Record(tx, model.OpRead, ops[i].Item, r.Value, r.Version)
		}
	}
}

func errReleased(tx model.TxID) error {
	return model.Abortf(model.AbortCC, "transaction %s already released", tx)
}

// serveAsync is the wire.AsyncServeFunc half of the site: it claims
// copy-operation requests for the pipeline and declines the rest (false
// sends the transport down the synchronous serve path). Decode happens here
// — the pipeline's first stage — on the transport goroutine, so a malformed
// payload is refused without occupying a queue slot.
func (s *Site) serveAsync(_ model.SiteID, tid trace.ID, kind wire.MsgKind, pay wire.Payload, reply wire.ReplyFunc) bool {
	if kind != wire.KindCopyBatch {
		return false
	}
	p := s.pipe.Load()
	if p == nil {
		return false // pipeline disabled or not built yet
	}
	op := copyOp{reply: reply, tid: tid}
	if tid != 0 {
		op.enq = time.Now().UnixNano()
	}
	if err := decodeWave(pay, &op); err != nil {
		reply(0, nil, err)
		return true
	}
	// Same placement function as the storage shards and lock stripes.
	sh := int(shard.Hash(op.ops[0].Item)) & (p.Shards() - 1)
	// lifeCtx (not runCtx) bounds a blocked Submit: it is set once at New and
	// cancelled only by Close, so it needs no lock here; a crash leaves the
	// sequencers draining, which frees the slot anyway.
	if err := p.Submit(s.lifeCtx, sh, op); err != nil {
		return false // closing/swapping: the synchronous path still works
	}
	return true
}

// copyBatch processes one drained batch of waves on its shard's sequencer
// goroutine. The per-request costs of the synchronous path that don't
// depend on the request — the site-state snapshot under s.mu, the
// release-tombstone lookups, the clock witness and peek — are paid once per
// batch.
func (s *Site) copyBatch(_ int, batch []copyOp) {
	// Two clock reads per BATCH (not per op) feed the always-on batch-drain
	// histogram; the per-op cost is amortized over the whole drain.
	batchStart := time.Now()
	defer func() { s.tracer.Observe(trace.StageBatch, time.Since(batchStart)) }()

	s.mu.Lock()
	crashed := s.crashed
	st := s.stackLocked()
	released := make([]bool, len(batch))
	for i := range batch {
		released[i] = s.released.has(batch[i].tx)
	}
	s.mu.Unlock()

	if crashed || st.ccm == nil {
		for i := range batch {
			batch[i].reply(0, nil, errCrashed)
		}
		return
	}

	// One Witness covers the whole batch: the clock only ever advances to
	// the maximum observed time, so witnessing the batch's newest timestamp
	// is equivalent to witnessing each in turn.
	var maxTS model.Timestamp
	for i := range batch {
		if maxTS.Less(batch[i].ts) {
			maxTS = batch[i].ts
		}
	}
	s.clock.Witness(maxTS)

	// Admit every wave as far as it goes without waiting. next[i] is where
	// wave i stopped: len(ops) when it is complete, the index of the
	// operation that would block otherwise.
	total := 0
	for i := range batch {
		total += len(batch[i].ops)
	}
	flat := make([]rcp.CopyResult, total) // one allocation for the whole drain
	results := make([][]rcp.CopyResult, len(batch))
	next := make([]int, len(batch))
	for i := range batch {
		n := len(batch[i].ops)
		results[i], flat = flat[:n:n], flat[n:]
		if !released[i] {
			next[i] = st.admit(st.runCtx, batch[i].tx, batch[i].ts, batch[i].ops, results[i], 0, false)
		}
	}

	// Re-check tombstones for the completed waves under one lock: a release
	// that raced past the admit must win, exactly like the synchronous
	// path's post-admit check. (A spilled wave re-checks when it completes.)
	raced := make([]bool, len(batch))
	s.mu.Lock()
	for i := range batch {
		if !released[i] {
			raced[i] = s.released.has(batch[i].tx)
		}
	}
	s.mu.Unlock()

	// Peek after Witness(maxTS): every reply's Clock is >= its request's
	// timestamp, as the synchronous path guarantees.
	clockNow := s.clock.Peek()
	for i := range batch {
		op := &batch[i]
		spilled := !released[i] && next[i] < len(op.ops)
		if op.tid != 0 {
			// Traced wave: record its shard-queue wait (decode to sequencer
			// pickup) and, unless it spilled, the batched admission, as a
			// fragment collated with the home site's trace by ID. A spilled
			// wave's admission is recorded by spillWave on its own fragment.
			act := s.tracer.Join(op.tid, op.tx)
			enq := time.Unix(0, op.enq)
			act.Record(trace.StageQueue, enq, batchStart.Sub(enq), "shard queue")
			if !spilled {
				act.Record(trace.StageAdmit, batchStart, time.Since(batchStart), "batched")
			}
			act.Finish()
		}
		switch {
		case released[i]:
			op.reply(0, nil, errReleased(op.tx))
		case spilled && op.noWait:
			op.reply(s.refuseBlocked(st, op.tx, clockNow))
		case spilled:
			s.pipeSpills.Add(1)
			go s.spillWave(st, *op, results[i], next[i])
		case op.vote:
			// The vote forces a record under the site gate, whose write side
			// a live rebuild holds while it drains this pipeline.
			go func(op copyOp, res []rcp.CopyResult, raced bool) {
				op.reply(s.finish(st, &op, res, raced, clockNow))
			}(*op, results[i], raced[i])
		default:
			op.reply(s.finish(st, op, results[i], raced[i], clockNow))
		}
	}
}

// spillWave finishes a wave whose operation at index from would block,
// through the blocking CC calls and in order, off the sequencer goroutine,
// so a lock wait or timestamp-intent gate never stalls the requests queued
// behind it — and so the wave still takes its locks in the order sent. The
// stack captured at batch time rides along: a spill that straddles a
// reconfiguration behaves like any in-flight synchronous operation against
// the old incarnation.
func (s *Site) spillWave(st ccStack, op copyOp, res []rcp.CopyResult, from int) {
	act := s.tracer.Join(op.tid, op.tx)
	defer act.Finish()
	sp := act.StartSpan(trace.StageSpill, op.ops[from].String())
	st.admit(trace.NewContext(st.runCtx, act), op.tx, op.ts, op.ops, res, from, true)
	sp.End()
	op.reply(s.finish(st, &op, res, s.isReleased(op.tx), s.clock.Peek()))
}

// swapPipeline installs the pipeline for a freshly (re)built stack and
// closes the previous one. Called after rebuild releases s.mu: Close waits
// out in-flight batches, which take s.mu — closing under it would deadlock.
// Old-pipeline batches still draining capture the CURRENT stack at batch
// time, so they behave like the synchronous path's in-flight operations.
func (s *Site) swapPipeline(pol schema.PipelinePolicy, shards int) {
	var next *pipeline.Pipeline[copyOp]
	if !pol.Disable {
		next = pipeline.New[copyOp](shards, pol.Depth, pol.MaxBatch, s.copyBatch)
	}
	if old := s.pipe.Swap(next); old != nil {
		old.Close()
	}
}

// PipelineStats snapshots the current pipeline's counters plus the spill
// count (zeros when the pipeline is disabled).
func (s *Site) PipelineStats() (pipeline.Stats, uint64) {
	if p := s.pipe.Load(); p != nil {
		return p.Stats(), s.pipeSpills.Load()
	}
	return pipeline.Stats{}, s.pipeSpills.Load()
}
