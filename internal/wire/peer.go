package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/trace"
)

// ErrClosed is returned by Peer operations after Close.
var ErrClosed = errors.New("wire: peer closed")

// ServeFunc handles one inbound request and returns the response kind and
// typed body. Returning an error sends a KindError reply carrying the
// error's abort cause (if any) to the caller. req is the encoded request
// payload; handlers decode it into the typed body for the kind (its
// DecodeFrom). tid is the request envelope's trace ID (zero for the
// untraced common case); handlers doing traced work join the distributed
// trace under it. ServeFunc runs on a goroutine of its own per request, so
// it may block, and must be safe for concurrent use.
type ServeFunc func(from model.SiteID, tid trace.ID, kind MsgKind, req []byte) (MsgKind, Body, error)

// Peer layers request/response RPC over a Network endpoint. Each Rainbow
// node (name server, site, workload driver, monitor) owns one Peer.
//
// Outbound: Call sends a request and blocks for the correlated reply; Cast
// sends one-way. Inbound: requests are dispatched to the ServeFunc and the
// returned body is sent back as a reply.
type Peer struct {
	ep    Endpoint
	serve ServeFunc

	corr    atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan *Envelope
	closed  bool
}

// NewPeer attaches id to the network with the given request handler.
// serve may be nil for pure-client peers (inbound requests then get a
// generic error reply). On transports that deliver decoded frames in
// slices the peer attaches its batch handler too, so reply correlation for
// a whole frame costs one pending-map critical section.
func NewPeer(net Network, id model.SiteID, serve ServeFunc) (*Peer, error) {
	p := &Peer{serve: serve, pending: make(map[uint64]chan *Envelope)}
	var (
		ep  Endpoint
		err error
	)
	if bn, ok := net.(BatchNetwork); ok {
		ep, err = bn.AttachBatch(id, p.handle, p.handleBatch)
	} else {
		ep, err = net.Attach(id, p.handle)
	}
	if err != nil {
		return nil, err
	}
	p.ep = ep
	return p, nil
}

// ID returns the peer's network address.
func (p *Peer) ID() model.SiteID { return p.ep.ID() }

// Close detaches the peer and fails all pending calls.
func (p *Peer) Close() error {
	p.mu.Lock()
	p.closed = true
	for corr, ch := range p.pending {
		close(ch)
		delete(p.pending, corr)
	}
	p.mu.Unlock()
	return p.ep.Close()
}

// Call sends a request to `to` and blocks until the reply arrives, ctx is
// done, or the peer closes. The reply payload is decoded into respBody when
// respBody is non-nil. A KindError reply is converted back into the error
// it carries (preserving abort causes). The request body travels typed: the
// transport encodes it at flush time. See the generic Call helper for the declare-free typed form.
func (p *Peer) Call(ctx context.Context, to model.SiteID, kind MsgKind, body, respBody Body) error {
	corr := p.corr.Add(1)
	ch := make(chan *Envelope, 1)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.pending[corr] = ch
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		delete(p.pending, corr)
		p.mu.Unlock()
	}()

	env := &Envelope{From: p.ep.ID(), To: to, Kind: kind, Corr: corr, Body: body, Trace: uint64(trace.IDFromContext(ctx))}
	if err := p.ep.Send(ctx, env); err != nil {
		return err
	}

	select {
	case <-ctx.Done():
		return ctx.Err()
	case reply, ok := <-ch:
		if !ok {
			return ErrClosed
		}
		if reply.Kind == KindError {
			var eb ErrorBody
			if err := eb.DecodeFrom(reply.Payload); err != nil {
				return err
			}
			return eb.Err()
		}
		if respBody != nil {
			return respBody.DecodeFrom(reply.Payload)
		}
		return nil
	}
}

// Call sends req and decodes the typed response, constructing it for the
// caller — the generic replacement for declare-a-zero-value-and-pass
// boilerplate around Peer.Call. Resp is the response body type (named
// explicitly at the call site; the pointer-receiver Body implementation is
// inferred). kind stays explicit because several kinds share body types.
func Call[Resp any, P interface {
	*Resp
	Body
}](ctx context.Context, p *Peer, to model.SiteID, kind MsgKind, req Body) (*Resp, error) {
	resp := new(Resp)
	if err := p.Call(ctx, to, kind, req, P(resp)); err != nil {
		return nil, err
	}
	return resp, nil
}

// Cast sends a one-way message with no reply expected.
func (p *Peer) Cast(ctx context.Context, to model.SiteID, kind MsgKind, body Body) error {
	return p.ep.Send(ctx, &Envelope{From: p.ep.ID(), To: to, Kind: kind, Body: body, Trace: uint64(trace.IDFromContext(ctx))})
}

// handle is the transport-facing inbound handler. It may be called from a
// per-connection read loop (tcpnet), so only non-blocking work runs inline:
// reply correlation is a map send. A serve can block arbitrarily long (CC
// admission waits up to the lock timeout, prepares force the WAL), so every
// request gets its own goroutine — otherwise one blocked request
// head-of-line blocks every envelope behind it on the same connection.
func (p *Peer) handle(env *Envelope) {
	if env.Reply {
		p.mu.Lock()
		ch, ok := p.pending[env.Corr]
		if ok {
			delete(p.pending, env.Corr)
		}
		p.mu.Unlock()
		if ok {
			ch <- env
		}
		return // late/duplicate replies are dropped
	}

	if env.Corr == 0 {
		// One-way cast: dispatch, discard result. Casts run the same
		// ServeFunc, so they may block just like requests.
		if p.serve != nil {
			go p.serve(env.From, trace.ID(env.Trace), env.Kind, env.Payload) //nolint:errcheck
		}
		return
	}

	go p.serveSync(env)
}

// serveSync runs the ServeFunc for one request and sends its reply; always
// on its own goroutine (see handle).
func (p *Peer) serveSync(env *Envelope) {
	var (
		kind MsgKind
		body Body
		err  error
	)
	if p.serve == nil {
		err = fmt.Errorf("node %s does not serve requests", p.ep.ID())
	} else {
		kind, body, err = p.serve(env.From, trace.ID(env.Trace), env.Kind, env.Payload)
	}
	p.sendReply(env.From, env.Corr, env.Trace, kind, body, err)
}

// handleBatch dispatches one decoded wire frame: all replies resolve in a
// single pending-map critical section (the frame-level batching win on the
// caller side of coalesced RPC fan-ins), then requests dispatch through the
// normal per-envelope path.
func (p *Peer) handleBatch(envs []*Envelope) {
	var requests []*Envelope
	p.mu.Lock()
	for _, env := range envs {
		if !env.Reply {
			requests = append(requests, env)
			continue
		}
		if ch, ok := p.pending[env.Corr]; ok {
			delete(p.pending, env.Corr)
			ch <- env // cap-1 buffered and only the map winner sends: never blocks
		}
	}
	p.mu.Unlock()
	for _, env := range requests {
		p.handle(env)
	}
}

// sendReply sends one response envelope. An error is converted to a
// KindError reply preserving its abort cause. The request's trace ID is
// echoed so the reply's transport hops are traceable too. The typed body
// rides the envelope; the transport encodes it at flush time.
func (p *Peer) sendReply(to model.SiteID, corr, tid uint64, kind MsgKind, body Body, err error) {
	if err != nil {
		kind = KindError
		eb := errorBodyOf(err)
		body = &eb
	}
	reply := &Envelope{
		From: p.ep.ID(), To: to, Kind: kind,
		Corr: corr, Reply: true, Trace: tid, Body: body,
	}
	// Replies are best-effort; the caller times out on loss.
	p.ep.Send(context.Background(), reply) //nolint:errcheck
}
