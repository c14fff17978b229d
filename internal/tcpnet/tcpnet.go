// Package tcpnet implements wire.Network over real TCP connections, for the
// paper's multi-host deployment mode: each Rainbow site, the name server
// and the home-host tooling run as separate processes and exchange the same
// envelopes as on the simulated network.
//
// Send writes on the caller's goroutine by flat combining: a sender appends
// its envelope to the connection's pending slice and takes its write lock,
// and the holder writes everything pending as one length-prefixed
// multi-envelope frame (frame.go) with one conn.Write. Concurrent senders
// share a frame; an uncontended send costs one uncontended lock. The
// reader decodes a whole frame per ReadFull and dispatches its envelopes as
// a slice. A stream that does not open with the frame magic is closed.
//
// Backpressure is the socket's own: a write that cannot make progress
// blocks its holder and the senders behind it. Waiting for the lock ends
// with the sender's ctx or the connection; a write that passes its ctx
// deadline kills the connection, since a torn frame cannot be resumed. A
// sender that returns an error takes its envelope back out of pending.
//
// Addressing uses a shared address book (SiteID → host:port). Attaching a
// node starts a listener on its book address; ":0" addresses are resolved
// on listen and recorded back into the book, which is how single-machine
// tests obtain dynamic ports. In a real deployment the book comes from the
// name-server configuration (the paper's "id and end point specifications").
package tcpnet

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Stats counts transport events; the flushes-vs-envelopes ratio is the
// syscalls-per-operation measurement frame sharing improves.
type Stats struct {
	SentEnvelopes uint64 // envelopes written to sockets
	SentFlushes   uint64 // frames written, one conn.Write each (≈ write syscalls)
	SentBytes     uint64 // bytes written to sockets (bytes/flush = SentBytes/SentFlushes)
	RecvEnvelopes uint64 // envelopes decoded inbound
	RecvFrames    uint64 // multi-envelope frames decoded inbound
}

// Net is a TCP-backed wire.Network.
type Net struct {
	mu      sync.Mutex
	book    map[model.SiteID]string
	nodes   map[model.SiteID]*endpoint
	tracers map[model.SiteID]*trace.Tracer

	sentEnvelopes atomic.Uint64
	sentFlushes   atomic.Uint64
	sentBytes     atomic.Uint64
	recvEnvelopes atomic.Uint64
	recvFrames    atomic.Uint64
}

// New builds a TCP network with the given address book. The book may be
// extended later via SetAddr (e.g. after registering with the name server).
func New(book map[model.SiteID]string) *Net {
	b := make(map[model.SiteID]string, len(book))
	for k, v := range book {
		b[k] = v
	}
	return &Net{
		book:    b,
		nodes:   make(map[model.SiteID]*endpoint),
		tracers: make(map[model.SiteID]*trace.Tracer),
	}
}

// RegisterTracer attaches a site's tracer to its endpoint: the transport
// then feeds frame-write latencies into the always-on net_flush histogram
// and attaches send-wait spans to in-flight sampled traces. Sites probe
// for this method through the wire.Network interface; transports without it
// (the simulator) simply skip transport stages.
func (n *Net) RegisterTracer(id model.SiteID, t *trace.Tracer) {
	n.mu.Lock()
	n.tracers[id] = t
	ep := n.nodes[id]
	n.mu.Unlock()
	if ep != nil {
		ep.tracer.Store(t)
	}
}

// SetAddr records or updates a node's address.
func (n *Net) SetAddr(id model.SiteID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.book[id] = addr
}

// Addr returns the (possibly listen-resolved) address of a node.
func (n *Net) Addr(id model.SiteID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.book[id]
	return a, ok
}

// NetStats snapshots the transport counters.
func (n *Net) NetStats() Stats {
	return Stats{
		SentEnvelopes: n.sentEnvelopes.Load(),
		SentFlushes:   n.sentFlushes.Load(),
		SentBytes:     n.sentBytes.Load(),
		RecvEnvelopes: n.recvEnvelopes.Load(),
		RecvFrames:    n.recvFrames.Load(),
	}
}

// Attach implements wire.Network: it starts a listener on the node's book
// address and serves inbound envelope streams.
func (n *Net) Attach(id model.SiteID, h wire.Handler) (wire.Endpoint, error) {
	return n.AttachBatch(id, h, nil)
}

// AttachBatch implements wire.BatchNetwork: bh, when non-nil, receives each
// decoded multi-envelope frame as one slice (single-envelope frames still
// dispatch through h).
func (n *Net) AttachBatch(id model.SiteID, h wire.Handler, bh wire.BatchHandler) (wire.Endpoint, error) {
	if h == nil {
		return nil, errors.New("tcpnet: nil handler")
	}
	n.mu.Lock()
	addr, ok := n.book[id]
	if !ok {
		addr = "127.0.0.1:0"
	}
	if _, dup := n.nodes[id]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("tcpnet: %s already attached", id)
	}
	n.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s for %s: %w", addr, id, err)
	}
	ep := &endpoint{
		id:      id,
		net:     n,
		ln:      ln,
		handler: h,
		batch:   bh,
		conns:   make(map[model.SiteID]*outConn),
		live:    make(map[*outConn]struct{}),
	}
	n.mu.Lock()
	n.book[id] = ln.Addr().String()
	n.nodes[id] = ep
	if t := n.tracers[id]; t != nil {
		ep.tracer.Store(t)
	}
	n.mu.Unlock()

	go ep.acceptLoop()
	return ep, nil
}

type endpoint struct {
	id      model.SiteID
	net     *Net
	ln      net.Listener
	handler wire.Handler
	batch   wire.BatchHandler
	// tracer, when registered, receives frame-write observations and
	// send-wait spans for sampled envelopes leaving this endpoint.
	tracer atomic.Pointer[trace.Tracer]

	mu    sync.Mutex
	conns map[model.SiteID]*outConn
	// live holds every connection this endpoint has not yet killed, routed
	// or not: conns keeps only the newest route per peer, so a connection
	// displaced from it (or an accepted one that never carried traffic)
	// would otherwise outlive Close until its peer happened to hang up.
	live   map[*outConn]struct{}
	closed bool
}

// outConn is one connection's send half. Senders append to pending and
// take wlock; the holder writes everything pending as one frame.
type outConn struct {
	ep   *endpoint
	conn net.Conn
	// wlock is the write lock, a cap-1 channel so that waiting for it can
	// end with the sender's ctx or with the connection (done).
	wlock chan struct{}

	mu sync.Mutex
	// pending holds the envelopes no holder has taken yet, in Send order.
	// Each envelope gets the next seq; a holder takes all of pending, so
	// seq <= taken means taken, and seq <= written means written.
	pending             []pendingEnv
	seq, taken, written uint64

	// Guarded by wlock: the frame being written and its scratch.
	writing        []pendingEnv
	envs           []*wire.Envelope
	frame, bodyTmp []byte

	done     chan struct{}
	killOnce sync.Once
	dead     atomic.Bool
}

// pendingEnv is one envelope waiting for a holder. at is the Send instant
// (unix nanos) of sampled envelopes, so the holder can close their
// net_queue span when their frame's write starts; zero, the untraced case,
// costs nothing.
type pendingEnv struct {
	env *wire.Envelope
	seq uint64
	at  int64
}

// newOutConn opens the send half of conn by writing the frame magic.
func (e *endpoint) newOutConn(conn net.Conn) *outConn {
	c := &outConn{ep: e, conn: conn, wlock: make(chan struct{}, 1), done: make(chan struct{})}
	e.mu.Lock()
	closed := e.closed
	if !closed {
		e.live[c] = struct{}{}
	}
	e.mu.Unlock()
	if _, err := conn.Write(frameMagic[:]); err != nil || closed {
		c.kill() // dead on arrival, or made while Close ran: nobody else will
	}
	return c
}

func (e *endpoint) ID() model.SiteID { return e.id }

func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	live := make([]*outConn, 0, len(e.live))
	for c := range e.live {
		live = append(live, c)
	}
	e.conns = make(map[model.SiteID]*outConn)
	e.mu.Unlock()

	for _, c := range live {
		c.kill()
	}
	e.net.mu.Lock()
	delete(e.net.nodes, e.id)
	e.net.mu.Unlock()
	return e.ln.Close()
}

// kill marks the connection dead and closes the socket: a blocked write
// and the read loop fail on it, and senders waiting for the write lock
// wake on done. Callers must not hold the endpoint's mutex.
func (c *outConn) kill() {
	c.killOnce.Do(func() {
		c.dead.Store(true)
		close(c.done)
		c.ep.mu.Lock()
		delete(c.ep.live, c)
		c.ep.mu.Unlock()
		c.conn.Close()
	})
}

// Send implements wire.Endpoint: it lazily dials env.To and writes the
// envelope on the caller's goroutine, in a frame shared with any envelopes
// sent concurrently on the same connection. If the connection dies under
// it, Send redials once and writes the envelope again.
func (e *endpoint) Send(ctx context.Context, env *wire.Envelope) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("tcpnet: %s detached", e.id)
	}
	c, err := e.conn(ctx, env.To)
	if err != nil {
		return err
	}
	if err := c.send(ctx, env); err != nil {
		if !c.dead.Load() || ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
		e.dropConn(env.To, c)
		if c, err = e.conn(ctx, env.To); err != nil {
			return err
		}
		if err := c.send(ctx, env); err != nil {
			return fmt.Errorf("tcpnet: send %s→%s: %w", e.id, env.To, err)
		}
	}
	return nil
}

// errConnDead also reports an envelope whose frame was not written: every
// failed write kills its connection.
var errConnDead = errors.New("tcpnet: connection dead")

// send appends env to pending and takes the write lock. The holder writes
// every pending envelope; a sender whose envelope an earlier holder took
// returns that holder's outcome.
func (c *outConn) send(ctx context.Context, env *wire.Envelope) error {
	if c.dead.Load() {
		return errConnDead
	}
	p := pendingEnv{env: env}
	if env.Trace != 0 && c.ep.tracer.Load() != nil {
		p.at = time.Now().UnixNano()
	}
	c.mu.Lock()
	c.seq++
	p.seq = c.seq
	c.pending = append(c.pending, p)
	c.mu.Unlock()

	select {
	case c.wlock <- struct{}{}:
	case <-ctx.Done():
		return c.settle(p.seq, ctx.Err())
	case <-c.done:
		return c.settle(p.seq, errConnDead)
	}
	defer func() { <-c.wlock }()

	// A write must not start past its deadline: it would fail at once and
	// kill the connection, and ctx's own timer may not have fired yet.
	deadline, hasDeadline := ctx.Deadline()
	err := ctx.Err()
	if err == nil && hasDeadline && !time.Now().Before(deadline) {
		err = context.DeadlineExceeded
	}
	c.mu.Lock()
	if err != nil || p.seq <= c.taken {
		c.mu.Unlock()
		return c.settle(p.seq, cmp.Or(err, errConnDead))
	}
	c.writing, c.pending = c.pending, c.writing[:0]
	c.taken = c.seq
	c.mu.Unlock()

	err = c.write(deadline)
	clear(c.writing) // drop the envelope references until the next frame
	if err != nil {
		c.kill() // a torn frame cannot be resumed, and no frame may follow a lost one
		return err
	}
	c.mu.Lock()
	c.written = c.taken // only a holder moves taken
	c.mu.Unlock()
	return nil
}

// settle ends a send that did not write its own frame: an envelope still
// pending is taken back out and err returned; one an earlier holder wrote
// returns nil; one a holder took but did not write returns err.
func (c *outConn) settle(seq uint64, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq > c.taken {
		i := slices.IndexFunc(c.pending, func(p pendingEnv) bool { return p.seq == seq })
		c.pending = slices.Delete(c.pending, i, i+1)
		return err
	}
	if seq <= c.written {
		return nil
	}
	return err
}

// write encodes c.writing as one frame and writes it with one conn.Write
// before deadline (zero: none). Sampled envelopes get their net_queue span
// first: once the bytes are out, the peer's reply can finish the trace, and
// a span recorded after that is dropped.
func (c *outConn) write(deadline time.Time) error {
	tracer := c.ep.tracer.Load()
	var start time.Time
	if tracer != nil {
		start = time.Now()
		for _, p := range c.writing {
			if p.at != 0 {
				at := time.Unix(0, p.at)
				tracer.Lookup(trace.ID(p.env.Trace)).
					Record(trace.StageNetQueue, at, start.Sub(at), string(p.env.To)+" "+p.env.Kind.String())
			}
		}
	}
	c.envs = c.envs[:0]
	for _, p := range c.writing {
		c.envs = append(c.envs, p.env)
	}
	c.frame = appendFrame(c.frame[:0], c.envs, &c.bodyTmp)
	clear(c.envs)
	err := c.conn.SetWriteDeadline(deadline)
	if err == nil {
		_, err = c.conn.Write(c.frame)
	}
	if err != nil {
		return err
	}
	n := c.ep.net
	n.sentEnvelopes.Add(uint64(len(c.writing)))
	n.sentFlushes.Add(1)
	n.sentBytes.Add(uint64(len(c.frame)))
	if tracer != nil {
		tracer.Observe(trace.StageNetFlush, time.Since(start))
	}
	return nil
}

// conn returns the cached connection to `to`, dialing one if needed.
func (e *endpoint) conn(ctx context.Context, to model.SiteID) (*outConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr, ok := e.net.Addr(to)
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for %s", to)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s (%s): %w", to, addr, err)
	}
	c := e.newOutConn(conn)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.kill()
		return nil, fmt.Errorf("tcpnet: %s detached", e.id)
	}
	if existing, ok := e.conns[to]; ok {
		e.mu.Unlock()
		c.kill()
		return existing, nil
	}
	e.conns[to] = c
	e.mu.Unlock()
	// Dialed connections are bidirectional: replies (and any traffic the
	// peer routes back on this socket) must be read too.
	go e.readLoop(c, to)
	return c, nil
}

func (e *endpoint) dropConn(to model.SiteID, c *outConn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	c.kill()
}

func (e *endpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.serveAccepted(conn)
	}
}

// serveAccepted checks the peer's frame magic and runs the read loop. The
// outConn for the reply direction is created only after the magic arrived,
// so a stream that is not Rainbow traffic never gets a send half.
func (e *endpoint) serveAccepted(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	if err := readMagic(br); err != nil {
		conn.Close()
		return
	}
	e.readConn(e.newOutConn(conn), br, "")
}

// readMagic consumes the frame magic that opens every connection direction,
// failing on a stream that opens with anything else.
func readMagic(br *bufio.Reader) error {
	var head [len(frameMagic)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return err
	}
	if head != frameMagic {
		return errors.New("tcpnet: stream does not open with the frame magic")
	}
	return nil
}

// readLoop serves one dialed connection's inbound half: check the peer's
// frame magic, then decode until the connection dies.
func (e *endpoint) readLoop(oc *outConn, from model.SiteID) {
	br := bufio.NewReaderSize(oc.conn, 64<<10)
	if err := readMagic(br); err != nil {
		oc.kill()
		return
	}
	e.readConn(oc, br, from)
}

// readConn decodes one connection's inbound stream. Every connection is
// bidirectional: it is registered as the outbound route to whatever peer
// sends on it ("newest route wins"), so replies travel back on the
// connection the request arrived on — which keeps working across peer
// restarts where a previously cached dialed connection would be silently
// stale. from names the peer the connection was dialed to (empty for
// accepted connections; learned from traffic).
func (e *endpoint) readConn(oc *outConn, br *bufio.Reader, from model.SiteID) {
	defer func() {
		e.mu.Lock()
		if from != "" && e.conns[from] == oc {
			delete(e.conns, from)
		}
		e.mu.Unlock()
		// The send half has no reason to outlive the read half: killing it
		// closes the socket, releases senders waiting on it and drops an
		// accepted connection (never registered in conns) from the live set.
		oc.kill()
	}()

	var frameBuf []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n < 4 || n > maxFrameBytes {
			return // torn or garbage frame length: drop the connection
		}
		if uint32(cap(frameBuf)) < n {
			frameBuf = make([]byte, n)
		}
		frameBuf = frameBuf[:n]
		if _, err := io.ReadFull(br, frameBuf); err != nil {
			return // torn frame: the sender re-sends on a fresh connection
		}
		envs, err := decodeFrame(frameBuf)
		if err != nil {
			return
		}
		e.net.recvFrames.Add(1)
		e.net.recvEnvelopes.Add(uint64(len(envs)))
		if f := envs[0].From; f != "" && f != from {
			e.mu.Lock()
			e.conns[f] = oc
			e.mu.Unlock()
			from = f
		}
		if oc.dead.Load() {
			return // killed, by the endpoint's Close among others
		}
		if e.batch != nil && len(envs) > 1 {
			e.batch(envs)
			continue
		}
		for _, env := range envs {
			e.handler(env)
		}
	}
}
