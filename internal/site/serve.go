package site

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nameserver"
	"repro/internal/trace"
	"repro/internal/wire"
)

// serve dispatches inbound requests, each on a goroutine of its own (see
// wire.Peer). tid is the request's distributed-trace ID (zero for the
// untraced common case): traced copy operations and prepares record a local
// trace fragment under it, joined with the home site's fragment by ID at
// collation time.
func (s *Site) serve(from model.SiteID, tid trace.ID, kind wire.MsgKind, pay []byte) (wire.MsgKind, wire.Body, error) {
	s.mu.Lock()
	if s.crashed || s.part == nil {
		// Belt and braces: the network layer already drops traffic to a
		// crashed site; refuse anything that slips through. A site that is
		// still starting (New serves before its first stack is built) has
		// no stack to serve with yet.
		s.mu.Unlock()
		return 0, nil, errCrashed
	}
	st := s.stackLocked()
	part := s.part
	s.mu.Unlock()

	switch kind {
	case wire.KindPing:
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindCopyBatch:
		return s.serveWave(st, tid, pay)

	case wire.KindReleaseTx:
		var req wire.ReleaseTxReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		s.tombstone(req.Tx)
		// A participant prepared on tx — a leg that voted with its reply —
		// keeps its locks and intents: a yes vote is a promise only the
		// decision may release. The tombstone still refuses every later
		// operation and vote. (A vote whose guards passed just before the
		// tombstone may register after this check, unprotected; that is safe
		// because a home releases only a transaction it will not commit.)
		if !part.Prepared(req.Tx) {
			st.ccm.Abort(req.Tx)
		}
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindPrepare:
		var req wire.PrepareReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		s.clock.Witness(req.TS)
		act := s.tracer.Join(tid, req.Tx)
		sp := act.StartSpan(trace.StageWALAppend, "prepare force")
		resp := s.votePrepare(req)
		sp.End()
		act.Finish()
		return wire.KindVote, &resp, nil

	case wire.KindPreCommit:
		var req wire.PreCommitReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		// The ack promises a FORCED pre-commit (the coordinator counts it
		// toward the commit quorum); a failed force must not ack.
		if err := s.handlePreCommit(req.Tx); err != nil {
			return 0, nil, err
		}
		return wire.KindAck, &wire.AckMsg{Tx: req.Tx}, nil

	case wire.KindTermQuery:
		var req wire.TermQueryReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		resp := s.handleTermQuery(req.Tx, req.Ballot)
		return wire.KindTermQuery, &resp, nil

	case wire.KindTermPreDecide:
		var req wire.TermPreDecideReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		resp := s.handlePreDecide(req.Tx, req.Ballot, req.Commit)
		return wire.KindTermPreDecide, &resp, nil

	case wire.KindDecision:
		var req wire.DecisionMsg
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		handle := part.HandleDecision
		if req.Lazy {
			handle = part.HandleLazyDecision
		}
		if err := handle(req.Tx, req.Commit); err != nil {
			return 0, nil, err
		}
		return wire.KindAck, &wire.AckMsg{Tx: req.Tx}, nil

	case wire.KindEndTx:
		var req wire.EndTxMsg
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		// The cohort fully acknowledged: the decision entry is dead weight
		// (nobody will ask again); drop it so snapshots stop mirroring it.
		part.Retire(req.Tx)
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindDecisionReq:
		var req wire.DecisionReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		commit, known := s.localDecision(req.Tx, req.ThreePhase)
		return wire.KindDecision, &wire.DecisionResp{Known: known, Commit: commit}, nil

	case wire.KindSubmitTx:
		var req wire.SubmitTxReq
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		outcome := s.Execute(st.runCtx, req.Ops)
		return wire.KindSubmitTx, &wire.SubmitTxResp{Outcome: outcome}, nil

	case wire.KindCatalogPush:
		var req nameserver.CatalogPushMsg
		if err := req.DecodeFrom(pay); err != nil {
			return 0, nil, err
		}
		// Reconfigure quiesces and rebuilds; never on a transport goroutine.
		// Stale pushes (a racing poll already applied the epoch) are the
		// expected no-op; real failures surface on the next poll tick.
		cat := req.Catalog
		go s.Reconfigure(&cat) //nolint:errcheck
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindGetStats:
		return wire.KindGetStats, &StatsResp{Stats: s.Stats()}, nil

	case wire.KindResetStats:
		s.ResetStats()
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindGetHistory:
		return wire.KindGetHistory, &HistoryResp{Events: s.History()}, nil

	default:
		return 0, nil, fmt.Errorf("site %s: unhandled message kind %s", s.id, kind)
	}
}
