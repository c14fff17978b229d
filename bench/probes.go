package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// probes collects what the traced run observes from outside the program, at
// the two seams site.Config offers: the WAL and the network. An untraced run
// has no probes and passes the real log and network straight through.
type probes struct {
	// msgs counts envelopes handed to the transport, requests and replies
	// apart, by message kind.
	msgs [2][maxKinds]atomic.Uint64

	walCalls  atomic.Uint64
	walBusyNS atomic.Int64

	mu       sync.Mutex
	walSpans []walSpan
}

// maxKinds bounds the kind index; kinds beyond it share the last slot.
const maxKinds = 64

// walSpan is one Append/AppendBatch call as the site saw it: group-commit
// wait and force included.
type walSpan struct {
	site       model.SiteID
	tx         model.TxID
	records    int
	start, end time.Time
}

func newProbes() *probes { return &probes{} }

// reset zeroes the counters at the start of the measured window.
func (p *probes) reset() {
	for r := range p.msgs {
		for k := range p.msgs[r] {
			p.msgs[r][k].Store(0)
		}
	}
	p.walCalls.Store(0)
	p.walBusyNS.Store(0)
	p.mu.Lock()
	p.walSpans = nil
	p.mu.Unlock()
}

// msgCounts returns the non-zero envelope counts keyed "Kind" for requests
// and "Kind.reply" for replies, and their total.
func (p *probes) msgCounts() (map[string]uint64, uint64) {
	out := make(map[string]uint64)
	var total uint64
	for r := range p.msgs {
		for k := range p.msgs[r] {
			n := p.msgs[r][k].Load()
			if n == 0 {
				continue
			}
			name := wire.MsgKind(k).String()
			if r == 1 {
				name += ".reply"
			}
			out[name] = n
			total += n
		}
	}
	return out, total
}

// countingNet wraps the TCP network so every endpoint a site attaches counts
// the envelopes it sends. Embedding *tcpnet.Net keeps the optional surface
// the site and the wire layer probe for (NetStats, RegisterTracer, and
// BatchNetwork through the AttachBatch override).
type countingNet struct {
	*tcpnet.Net
	p *probes
}

func (n *countingNet) Attach(id model.SiteID, h wire.Handler) (wire.Endpoint, error) {
	return n.AttachBatch(id, h, nil)
}

func (n *countingNet) AttachBatch(id model.SiteID, h wire.Handler, bh wire.BatchHandler) (wire.Endpoint, error) {
	ep, err := n.Net.AttachBatch(id, h, bh)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{Endpoint: ep, p: n.p}, nil
}

type countingEndpoint struct {
	wire.Endpoint
	p *probes
}

func (e *countingEndpoint) Send(ctx context.Context, env *wire.Envelope) error {
	reply := 0
	if env.Reply {
		reply = 1
	}
	e.p.msgs[reply][min(int(env.Kind), maxKinds-1)].Add(1)
	return e.Endpoint.Send(ctx, env)
}

// timedLog wraps a site's WAL and times every append call. Embedding the
// full interface forwards the compaction, batch-counter and flush-observer
// surface untouched.
type timedLog struct {
	fullLog
	p    *probes
	site model.SiteID
}

func (l *timedLog) Append(r wal.Record) error {
	start := time.Now()
	err := l.fullLog.Append(r)
	l.observe(start, r.Tx, 1)
	return err
}

func (l *timedLog) AppendBatch(recs []wal.Record) error {
	start := time.Now()
	err := l.fullLog.AppendBatch(recs)
	if len(recs) > 0 {
		l.observe(start, recs[0].Tx, len(recs))
	}
	return err
}

func (l *timedLog) observe(start time.Time, tx model.TxID, records int) {
	end := time.Now()
	l.p.walCalls.Add(1)
	l.p.walBusyNS.Add(int64(end.Sub(start)))
	l.p.mu.Lock()
	l.p.walSpans = append(l.p.walSpans, walSpan{site: l.site, tx: tx, records: records, start: start, end: end})
	l.p.mu.Unlock()
}
