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
	"repro/internal/rcp"
	"repro/internal/trace"
	"repro/internal/wire"
)

// A copy request (KindCopyBatch) is a wave: one transaction's copy
// operations for this site — reads, pre-writes and pre-adds, the paper's RCP
// traffic and the bulk of every workload — to be admitted in the order
// given: a one-shot transaction's whole share, or a single operation of the
// interactive path, which is a wave of one. Every wave is served on its
// request's own goroutine (the transport gives each request one), so a wave
// that waits on a lock holds up nothing but itself: not its connection's
// read loop, not the waves queued behind it.

// serveWave admits one wave and answers it: refused if the transaction was
// already released here; otherwise every operation is admitted in order
// (blocking unless the wave is no-wait) and the tail (Site.finish)
// builds the reply. A no-wait wave that would have had to wait is refused
// with WouldBlock instead. The admission is the wave's "admit" span; its
// waits are the CC managers' lock_wait spans inside it.
func (s *Site) serveWave(st ccStack, tid trace.ID, pay []byte) (wire.MsgKind, wire.Body, error) {
	var req wire.CopyBatchReq
	if err := req.DecodeFrom(pay); err != nil {
		return 0, nil, err
	}
	if len(req.Ops) == 0 {
		return 0, nil, fmt.Errorf("empty copy batch for %s", req.Tx)
	}
	s.wavesServed.Add(1)
	if s.isReleased(req.Tx) {
		return 0, nil, errReleased(req.Tx)
	}
	s.clock.Witness(req.TS)
	act := s.tracer.Join(tid, req.Tx)
	defer act.Finish()
	res := make([]rcp.CopyResult, len(req.Ops))
	sp := act.StartSpan(trace.StageAdmit, req.Ops[0].String())
	done, waited := st.admit(trace.NewContext(st.runCtx, act), req.Tx, req.TS, req.Ops, !req.NoWait, res)
	sp.End()
	if waited {
		s.wavesWaited.Add(1)
	}
	if !done {
		return s.refuseBlocked(st, req.Tx)
	}
	return s.finish(st, tid, &req, res)
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

// admit runs ops through the CC manager in order, filling res. Each
// operation is first admitted without waiting; where that reports it would
// have to wait (having admitted nothing), a blocking wave admits it again,
// waiting, and a non-blocking one stops there, reporting done false. All of
// a wave's waits at this site share ONE lock timeout, started at the first:
// the home site bounds the whole request with one attempt timeout, so a
// wave must fail as a clean CC lock-timeout abort before the home gives the
// site up for unreachable, however many of its operations had to wait. It
// is the only timer a wait arms, and a wave that never waits arms none. The
// first failure ends the wave: the operations after it are not run. waited
// reports that an operation was admitted again, waiting.
func (st ccStack) admit(ctx context.Context, tx model.TxID, ts model.Timestamp, ops []model.Op, block bool, res []rcp.CopyResult) (done, waited bool) {
	var wctx context.Context // the wave's wait budget; nil until a wait is needed
	for i, op := range ops {
		r := &res[i]
		r.Value, r.Version, r.Err = st.ccm.Admit(ctx, tx, ts, op, false)
		if errors.Is(r.Err, cc.ErrWouldBlock) {
			if !block {
				r.Err = nil
				return false, waited
			}
			if wctx == nil {
				var cancel context.CancelFunc
				wctx, cancel = context.WithTimeout(ctx, st.lockTimeout)
				defer cancel()
				waited = true
			}
			r.Value, r.Version, r.Err = st.ccm.Admit(wctx, tx, ts, op, true)
		}
		if r.Err != nil {
			for j := i + 1; j < len(ops); j++ {
				res[j].Err = errNotRun
			}
			break
		}
	}
	return true, waited
}

// finish is the tail of an admitted wave: a release that raced past the
// admission wins — undo and refuse; otherwise the reads enter the execution
// history and the results become the reply body, stamped with the site's
// Lamport time (never behind the wave's timestamp, which serveWave
// witnessed) and the incarnation that protects the operations. A final wave
// whose operations all succeeded then folds the read-only vote in
// (Site.fold), a vote wave votes (Site.vote).
func (s *Site) finish(st ccStack, tid trace.ID, req *wire.CopyBatchReq, res []rcp.CopyResult) (wire.MsgKind, wire.Body, error) {
	if s.isReleased(req.Tx) {
		st.ccm.Abort(req.Tx)
		return 0, nil, errReleased(req.Tx)
	}
	s.recordReads(req.Tx, req.Ops, res)
	resp := &wire.CopyBatchResp{Results: make([]wire.CopyResult, len(res)), Clock: s.clock.Peek(), Incarnation: st.incarnation}
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
	if req.Final {
		if err := s.fold(st, req.Tx, req.Epoch); err != nil {
			return 0, nil, err
		}
		resp.Released = true
	}
	if req.Vote {
		if err := s.vote(st, tid, req, res); err != nil {
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
func (s *Site) refuseBlocked(st ccStack, tx model.TxID) (wire.MsgKind, wire.Body, error) {
	st.ccm.Abort(tx)
	return wire.KindCopyBatch, &wire.CopyBatchResp{Clock: s.clock.Peek(), Incarnation: st.incarnation, WouldBlock: true}, nil
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
// reported (req.Floors), so the site votes at once. It goes through
// votePrepare — the prepare's guards (the incarnation that admitted the
// operations, the epoch fence, the release tombstone, the intents) and the
// force of a prepared record, as one unit under the site gate — with the
// transaction's home as coordinator, the wave's planned sites as the
// participants and the leg's write set (legWrites). The unit is recorded as
// a "vote force" span on the leg's trace fragment. A no vote releases and
// refuses the batch with an ACP abort.
func (s *Site) vote(st ccStack, tid trace.ID, req *wire.CopyBatchReq, res []rcp.CopyResult) error {
	act := s.tracer.Join(tid, req.Tx)
	sp := act.StartSpan(trace.StageWALAppend, "vote force")
	v := s.votePrepare(wire.PrepareReq{
		Tx:           req.Tx,
		TS:           req.TS,
		Coordinator:  req.Tx.Site,
		Participants: req.Cohort,
		Writes:       legWrites(req.Ops, res, req.Floors),
		Epoch:        req.Epoch,
		Incarnation:  st.incarnation,
	})
	sp.End()
	act.Finish()
	if !v.Yes {
		st.ccm.Abort(req.Tx)
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
