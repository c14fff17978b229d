// Package trace implements Rainbow's lightweight per-transaction tracing:
// sampled end-to-end trace contexts whose spans mark every stage boundary a
// transaction crosses — CC admission, lock waits, WAL forces, ACP rounds,
// transport send waits — across every site it touches.
//
// The design is Dapper-style: the home site samples a transaction at Begin
// (counter-based, every Nth), allocates a TraceID and an Active span
// collector, and the ID rides outbound wire envelopes (Envelope.Trace).
// Remote sites that see a non-zero ID record their own *fragment* — a Trace
// with the same ID, their own SiteID, and the spans of the work they did —
// into their local bounded ring. Collating the rings of all sites by ID
// reassembles the distributed picture; nothing is shipped eagerly, so
// tracing adds no messages.
//
// Cost model: an unsampled transaction pays one atomic add at Begin and
// carries a nil *Active — every span helper is nil-safe and returns before
// touching the clock, so the hot path stays within noise of untraced.
// Sampled work pays two clock reads per span plus one ring insert at
// Finish. Independent of sampling, the Tracer also aggregates always-on
// per-stage latency histograms (fed by batch/flush-grained observers whose
// cost is amortized over many operations), which the monitor exports.
package trace

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/monitor"
)

// ID identifies one sampled transaction across every site it touches.
// Zero means "not sampled"; it is the wire default and costs nothing.
type ID uint64

// Stage names one instrumented stage boundary.
type Stage uint8

// Stages, in rough hot-path order.
const (
	// StageExec is the whole transaction, begin to outcome (home site).
	StageExec Stage = iota
	// StageOp is one RCP read/write operation round trip (home site).
	StageOp
	// StageAdmit is one copy wave's CC admission at a serving site, waits
	// included.
	StageAdmit
	// StageLockWait is time actually parked on a lock queue or a TSO/MVTSO
	// intent gate.
	StageLockWait
	// StageWALAppend is a caller-visible durable WAL append (includes the
	// group-commit wait).
	StageWALAppend
	// StageWALFsync is one WAL force-write cycle (flush + fsync).
	StageWALFsync
	// StagePrepare is the ACP vote round (coordinator side).
	StagePrepare
	// StageDecide is the ACP decision round: decision force + broadcast.
	StageDecide
	// StageNetQueue is an envelope's transport send wait, from Send entry
	// to the start of the write of the frame that carries it.
	StageNetQueue
	// StageNetFlush is one transport frame's encode plus write.
	StageNetFlush

	numStages
)

// NumStages is the number of defined stages.
const NumStages = int(numStages)

var stageNames = [numStages]string{
	StageExec:      "exec",
	StageOp:        "op",
	StageAdmit:     "admit",
	StageLockWait:  "lock_wait",
	StageWALAppend: "wal_append",
	StageWALFsync:  "wal_fsync",
	StagePrepare:   "prepare",
	StageDecide:    "decide",
	StageNetQueue:  "net_queue",
	StageNetFlush:  "net_flush",
}

// String names the stage (the monitor's histogram key and the JSON form).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stages lists every stage name in declaration order (metrics rendering).
func Stages() []string {
	out := make([]string, numStages)
	for i := range out {
		out[i] = Stage(i).String()
	}
	return out
}

// Span is one recorded stage interval inside a trace fragment.
type Span struct {
	Stage Stage `json:"-"`
	// Name is Stage's string form, for the JSON export.
	Name string `json:"stage"`
	// Note carries stage-specific detail (an item, a peer site, a message
	// kind); may be empty.
	Note string `json:"note,omitempty"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// Dur is the span's length.
	Dur time.Duration `json:"dur_ns"`
}

// Trace is one completed fragment: the spans one site recorded for one
// sampled transaction. The home site's fragment has Root=true and a
// StageExec span covering the whole transaction; every other fragment
// covers a single remote request.
type Trace struct {
	ID    ID           `json:"id"`
	Tx    model.TxID   `json:"tx"`
	Site  model.SiteID `json:"site"`
	Root  bool         `json:"root,omitempty"`
	Start time.Time    `json:"start"`
	End   time.Time    `json:"end"`
	Spans []Span       `json:"spans"`
}

// Duration is the fragment's end-to-end length.
func (t Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// Policy configures sampling and retention. The zero value disables
// sampling entirely (always-on histograms still aggregate).
type Policy struct {
	// SampleRate is the fraction of transactions sampled at Begin, applied
	// as every-Nth with N = round(1/rate). <= 0 disables; >= 1 samples all.
	SampleRate float64
	// Ring bounds the completed-fragment ring; 0 selects DefaultRing.
	Ring int
	// SlowThreshold, when > 0, marks root traces slower than it and hands
	// them to the slow-trace sink (a log dump by default).
	SlowThreshold time.Duration
}

// DefaultRing is the default completed-fragment ring capacity.
const DefaultRing = 256

// interval converts SampleRate to the every-Nth counter interval
// (0 = never sample).
func (p Policy) interval() uint64 {
	if p.SampleRate <= 0 {
		return 0
	}
	if p.SampleRate >= 1 {
		return 1
	}
	return uint64(1/p.SampleRate + 0.5)
}

// Stats snapshots the tracer's counters for the monitor.
type Stats struct {
	// Sampled counts Begin decisions that produced an Active context.
	Sampled uint64
	// Fragments counts completed fragments pushed into the ring.
	Fragments uint64
	// Evicted counts ring overwrites (fragments lost to bounded retention).
	Evicted uint64
	// Slow counts root traces over the slow threshold.
	Slow uint64
}

// Tracer is one site's trace state: the sampling counter, the completed
// fragment ring, and the always-on per-stage histograms. All methods are
// safe for concurrent use; a nil *Tracer is a valid no-op.
type Tracer struct {
	site model.SiteID

	// policy is swapped atomically by live reconfiguration (SetPolicy);
	// interval is denormalized for the Begin fast path.
	policy   atomic.Pointer[Policy]
	interval atomic.Uint64

	seq     atomic.Uint64 // sampling counter
	idSeq   atomic.Uint64 // trace-ID counter (low bits)
	idBase  uint64        // per-site high bits, fnv of the site ID
	sampled atomic.Uint64
	slow    atomic.Uint64

	// onSlow, when set, receives root traces over the slow threshold.
	onSlow atomic.Pointer[func(Trace)]

	mu        sync.Mutex
	ring      []Trace // fixed-capacity circular buffer
	next      int
	fragments uint64
	evicted   uint64
	stages    [numStages]monitor.Histogram

	// actives indexes in-flight span collectors by trace ID so layers that
	// see only a wire-level ID (the transport's frame writer) can attach
	// spans without a context in hand. First collector per ID wins; Finish
	// removes only its own entry.
	activeMu sync.Mutex
	actives  map[ID]*Active
}

// New builds a tracer for site under policy.
func New(site model.SiteID, policy Policy) *Tracer {
	t := &Tracer{site: site, actives: make(map[ID]*Active)}
	h := fnv.New64a()
	h.Write([]byte(site))
	// Keep the low 24 bits for the counter's visible portion and spread the
	// site hash over the top 40, so IDs minted by different sites for their
	// own transactions cannot collide in practice.
	t.idBase = h.Sum64() << 24
	t.SetPolicy(policy)
	return t
}

// SetPolicy swaps the sampling policy in place (live reconfiguration: no
// rebuild, in-flight traces keep their sampled state). The ring is resized
// lazily — existing fragments are retained up to the new bound.
func (t *Tracer) SetPolicy(p Policy) {
	if t == nil {
		return
	}
	if p.Ring <= 0 {
		p.Ring = DefaultRing
	}
	t.mu.Lock()
	// Re-rotate to a dense, chronologically ordered prefix so the ring
	// invariant (append while under capacity, overwrite at next when full)
	// holds across a capacity change in either direction.
	ordered := t.snapshotLocked()
	t.policy.Store(&p)
	t.interval.Store(p.interval())
	if len(ordered) > p.Ring {
		ordered = ordered[len(ordered)-p.Ring:] // keep the newest
	}
	t.ring = append([]Trace(nil), ordered...)
	t.next = 0
	t.mu.Unlock()
}

// Policy returns the active policy.
func (t *Tracer) Policy() Policy {
	if t == nil {
		return Policy{}
	}
	return *t.policy.Load()
}

// OnSlow installs the slow-trace sink (nil clears it).
func (t *Tracer) OnSlow(f func(Trace)) {
	if t == nil {
		return
	}
	if f == nil {
		t.onSlow.Store(nil)
		return
	}
	t.onSlow.Store(&f)
}

// Begin makes the sampling decision for a new home-site transaction,
// returning a root Active context or nil (the common case). The unsampled
// path is one atomic add and a modulo.
func (t *Tracer) Begin(tx model.TxID) *Active {
	if t == nil {
		return nil
	}
	n := t.interval.Load()
	if n == 0 || t.seq.Add(1)%n != 0 {
		return nil
	}
	t.sampled.Add(1)
	id := ID(t.idBase | (t.idSeq.Add(1) & (1<<24 - 1)))
	a := &Active{tr: t, id: id, tx: tx, root: true, start: time.Now()}
	t.register(a)
	return a
}

// Join opens a fragment for remote work arriving with a propagated trace
// ID. Returns nil when id is zero, so callers can pass the wire field
// through unconditionally.
func (t *Tracer) Join(id ID, tx model.TxID) *Active {
	if t == nil || id == 0 {
		return nil
	}
	a := &Active{tr: t, id: id, tx: tx, start: time.Now()}
	t.register(a)
	return a
}

// register indexes a new collector; the first one per ID wins (a site may
// serve several requests of one trace concurrently).
func (t *Tracer) register(a *Active) {
	t.activeMu.Lock()
	if _, busy := t.actives[a.id]; !busy {
		t.actives[a.id] = a
	}
	t.activeMu.Unlock()
}

// Lookup returns the in-flight collector registered for id, or nil.
// Nil-safe on both tracer and result.
func (t *Tracer) Lookup(id ID) *Active {
	if t == nil || id == 0 {
		return nil
	}
	t.activeMu.Lock()
	a := t.actives[id]
	t.activeMu.Unlock()
	return a
}

// Observe feeds one latency sample into a stage's always-on histogram.
// Nil-safe; called at batch/flush granularity so the mutex stays cold.
func (t *Tracer) Observe(stage Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages[stage].Observe(int64(d))
	t.mu.Unlock()
}

// StageHistograms snapshots the per-stage histograms, keyed by stage name;
// empty stages are omitted.
func (t *Tracer) StageHistograms() map[string]monitor.Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]monitor.Histogram)
	for i := range t.stages {
		if t.stages[i].Count > 0 {
			out[Stage(i).String()] = t.stages[i]
		}
	}
	return out
}

// Stats snapshots the tracer counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	frags, ev := t.fragments, t.evicted
	t.mu.Unlock()
	return Stats{
		Sampled:   t.sampled.Load(),
		Fragments: frags,
		Evicted:   ev,
		Slow:      t.slow.Load(),
	}
}

// ResetStages zeroes the per-stage histograms (the monitor's window reset).
// The fragment ring is retention, not a counter, and is left alone.
func (t *Tracer) ResetStages() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.stages {
		t.stages[i] = monitor.Histogram{}
	}
	t.mu.Unlock()
}

// Snapshot returns the retained fragments, oldest first.
func (t *Tracer) Snapshot() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// snapshotLocked rotates the ring into chronological order (next is the
// oldest slot when the ring is full, 0 otherwise). Caller holds mu.
func (t *Tracer) snapshotLocked() []Trace {
	out := make([]Trace, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// TracesFor returns the retained fragments recorded for the given
// transactions (the soak harness's violation dump).
func (t *Tracer) TracesFor(txs map[model.TxID]bool) []Trace {
	var out []Trace
	for _, tr := range t.Snapshot() {
		if txs[tr.Tx] {
			out = append(out, tr)
		}
	}
	return out
}

// push retires a completed fragment into the ring and folds its spans into
// the stage histograms.
func (t *Tracer) push(tr Trace) {
	t.mu.Lock()
	for _, sp := range tr.Spans {
		t.stages[sp.Stage].Observe(int64(sp.Dur))
	}
	t.fragments++
	if limit := t.Policy().Ring; len(t.ring) < limit {
		t.ring = append(t.ring, tr)
	} else {
		if t.next >= len(t.ring) {
			t.next = 0
		}
		t.ring[t.next] = tr
		t.next = (t.next + 1) % len(t.ring)
		t.evicted++
	}
	t.mu.Unlock()

	p := t.policy.Load()
	if tr.Root && p.SlowThreshold > 0 && tr.Duration() > p.SlowThreshold {
		t.slow.Add(1)
		if f := t.onSlow.Load(); f != nil {
			(*f)(tr)
		}
	}
}

// Active is the span collector for one in-flight sampled transaction (or
// one remote fragment of it). A nil *Active is the unsampled case: every
// method returns immediately, before reading the clock.
type Active struct {
	tr    *Tracer
	id    ID
	tx    model.TxID
	root  bool
	start time.Time

	mu    sync.Mutex
	spans []Span
	done  bool
}

// ID returns the trace ID (0 for nil), for stamping outbound envelopes.
func (a *Active) ID() ID {
	if a == nil {
		return 0
	}
	return a.id
}

// Tx returns the traced transaction.
func (a *Active) Tx() model.TxID {
	if a == nil {
		return model.TxID{}
	}
	return a.tx
}

// Record adds a completed span. Nil-safe.
func (a *Active) Record(stage Stage, start time.Time, d time.Duration, note string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.done {
		a.spans = append(a.spans, Span{Stage: stage, Name: stage.String(), Note: note, Start: start, Dur: d})
	}
	a.mu.Unlock()
}

// StartSpan opens a span; call End on the returned timer when the stage
// completes. On a nil Active the timer is inert and no clock is read.
func (a *Active) StartSpan(stage Stage, note string) Timer {
	if a == nil {
		return Timer{}
	}
	return Timer{a: a, stage: stage, note: note, start: time.Now()}
}

// Timer is an open span handle. The zero Timer (from a nil Active) no-ops.
type Timer struct {
	a     *Active
	stage Stage
	note  string
	start time.Time
}

// End closes the span and records it.
func (t Timer) End() {
	if t.a == nil {
		return
	}
	t.a.Record(t.stage, t.start, time.Since(t.start), t.note)
}

// Finish completes the fragment and retires it into the tracer's ring.
// Idempotent; spans recorded after Finish are dropped.
func (a *Active) Finish() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	spans := a.spans
	a.mu.Unlock()
	a.tr.activeMu.Lock()
	if a.tr.actives[a.id] == a {
		delete(a.tr.actives, a.id)
	}
	a.tr.activeMu.Unlock()
	a.tr.push(Trace{
		ID: a.id, Tx: a.tx, Site: a.tr.site, Root: a.root,
		Start: a.start, End: time.Now(), Spans: spans,
	})
}

// Collate groups fragments from any number of sites by trace ID, each
// group's fragments ordered root-first then by start time. Used by trace
// dumps and the bench's slow-trace report.
func Collate(fragments ...[]Trace) map[ID][]Trace {
	out := make(map[ID][]Trace)
	for _, frs := range fragments {
		for _, fr := range frs {
			out[fr.ID] = append(out[fr.ID], fr)
		}
	}
	for _, group := range out {
		sortFragments(group)
	}
	return out
}

func sortFragments(group []Trace) {
	for i := 1; i < len(group); i++ {
		for j := i; j > 0; j-- {
			a, b := &group[j-1], &group[j]
			if b.Root && !a.Root || (a.Root == b.Root && b.Start.Before(a.Start)) {
				group[j-1], group[j] = group[j], group[j-1]
			} else {
				break
			}
		}
	}
}

// Format renders one collated trace group as an indented stage breakdown
// (the slow-trace dump and the bench -trace report).
func Format(group []Trace) string {
	if len(group) == 0 {
		return ""
	}
	var b []byte
	head := group[0]
	b = fmt.Appendf(b, "trace %016x tx=%s %.3fms\n", uint64(head.ID), head.Tx, float64(head.Duration())/float64(time.Millisecond))
	for _, fr := range group {
		role := "frag"
		if fr.Root {
			role = "root"
		}
		b = fmt.Appendf(b, "  [%s] site=%s %.3fms\n", role, fr.Site, float64(fr.Duration())/float64(time.Millisecond))
		for _, sp := range fr.Spans {
			off := sp.Start.Sub(head.Start)
			b = fmt.Appendf(b, "    +%8.3fms %-10s %8.3fms", float64(off)/float64(time.Millisecond), sp.Name, float64(sp.Dur)/float64(time.Millisecond))
			if sp.Note != "" {
				b = fmt.Appendf(b, "  %s", sp.Note)
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}
