// Package wal implements the per-site write-ahead log that makes Rainbow's
// atomic commit protocols recoverable. Participants force a Prepared record
// (carrying the transaction's write records) before voting yes, and a
// Decision record when they learn the outcome; coordinators force their
// decision before broadcasting it. Crash recovery replays the log to
// rebuild committed state and to find in-doubt transactions.
//
// The file backend group-commits: a dedicated committer goroutine coalesces
// concurrently arriving appends into a single buffer-write/flush/fsync
// cycle, so under load N transactions pay one disk force instead of N. The
// durability contract is unchanged — Append and AppendBatch return only
// after the record's batch has been flushed (and fsynced when the log is in
// sync mode), so a participant's yes-vote still implies a forced Prepared
// record. Records remain one JSON line each; a crash mid-batch tears only
// the final line, which recovery discards, replaying every complete record.
//
// Two backends are provided: an in-memory log (used under the network
// simulator, where a "crash" discards a site's volatile state but keeps its
// log, exactly like a disk surviving a process crash) and a JSON-lines file
// log for real multi-process deployments.
package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// RecType discriminates log records.
type RecType uint8

// Record types.
const (
	// RecPrepared is forced by a participant before it votes yes (and by a
	// coordinator for its own local cohort membership). It carries the
	// write records needed to redo the transaction at commit.
	RecPrepared RecType = iota + 1
	// RecDecision is forced when the commit/abort outcome is known. On a
	// coordinator it is the commit point.
	RecDecision
	// RecEnd marks that all cohort acknowledgements arrived and the
	// transaction needs no further recovery work.
	RecEnd
	// RecCheckpoint is written by the checkpoint manager after a fuzzy
	// snapshot has been made durable. It pins the replay horizon: recovery
	// loads the snapshot and redoes only records at or after Horizon.
	RecCheckpoint
	// RecElect is forced by a 3PC participant before it answers a
	// termination-election query: Ballot is the new election epoch the
	// member promised (its "ea"). The promise must survive a crash —
	// otherwise a recovered member could accept a pre-decision from an
	// attempt older than one it already helped elect, and two quorums could
	// decide differently.
	RecElect
	// RecPreDecide is forced by a 3PC participant before it acknowledges a
	// pre-commit (Ballot{0, coordinator}, the live coordinator's round) or
	// a termination pre-decision (an elected initiator's ballot). Commit
	// carries the pre-decision's direction; Ballot is the accepted attempt
	// (the member's "eb"). Pre-committed state is durable, not volatile:
	// a recovered member rejoins termination with its logged state instead
	// of a presumed-abort guess.
	RecPreDecide
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecPrepared:
		return "prepared"
	case RecDecision:
		return "decision"
	case RecEnd:
		return "end"
	case RecCheckpoint:
		return "checkpoint"
	case RecElect:
		return "elect"
	case RecPreDecide:
		return "predecide"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Record is one WAL entry. Fields are populated according to Type.
type Record struct {
	Type RecType
	Tx   model.TxID
	TS   model.Timestamp
	// Coordinator and Participants describe the commit cohort (RecPrepared).
	Coordinator  model.SiteID
	Participants []model.SiteID
	// Voters lists the termination electorate (RecPrepared, 3PC): the
	// cohort members that hold writes. Quorum-based termination counts its
	// majorities over this set — read-only participants release at vote
	// time and must not dilute the quorum arithmetic.
	Voters []model.SiteID `json:",omitempty"`
	// ThreePhase records which ACP state machine governs the transaction.
	ThreePhase bool
	// Writes are the records to install on commit (RecPrepared).
	Writes []model.WriteRecord
	// Commit is the outcome (RecDecision) or the pre-decision direction
	// (RecPreDecide).
	Commit bool
	// Ballot is the termination-election epoch (RecElect: the promised
	// "ea"; RecPreDecide: the accepted attempt "eb").
	Ballot model.Ballot
	// Horizon is the replay horizon pinned by a checkpoint record
	// (RecCheckpoint): the first LSN recovery must redo on top of the
	// checkpoint's snapshot.
	Horizon uint64 `json:",omitempty"`
	// LSN is the record's log sequence number. It is a position, not
	// payload: LSN-aware logs assign it at append time and report it on
	// reads; it is never serialized.
	LSN uint64 `json:"-"`
	// Lazy marks a record no client is waiting on (a commit's phase 2 after
	// the reply). The append still returns only once the record is durable,
	// but a group-committing log does not start a force-write cycle for it:
	// it rides the next cycle an eager append starts, or one started after a
	// short linger when none comes. Like LSN, it is never serialized.
	Lazy bool `json:"-"`
}

// Log is an append-only record log.
type Log interface {
	// Append durably appends a record.
	Append(Record) error
	// AppendBatch durably appends records as one unit: all of them are on
	// stable storage when it returns. Backends may coalesce concurrent
	// batches into a single force-write.
	AppendBatch([]Record) error
	// ReadAll returns every record in append order.
	ReadAll() ([]Record, error)
	// Close releases resources. Appending after Close is an error.
	Close() error
}

// BatchStats reports group-commit counters: flushes is the number of
// force-write cycles, records the number of records they carried. Both
// backends implement it; the progress monitor reads it through the Log
// interface.
type BatchStats interface {
	BatchStats() (flushes, records uint64)
}

// FlushObserver receives the wall-clock duration of each force-write cycle
// (write + flush + fsync) and the number of records the cycle carried. The
// site's tracer feeds its wal_fsync stage histogram through it. Observers
// run inline on the committer goroutine and must be fast and safe for
// concurrent use; with no observer installed a flush pays one atomic load.
type FlushObserver func(d time.Duration, records uint64)

// Observable is implemented by logs that report per-flush timings (all
// backends in this package). The wal package stays free of monitoring
// imports; callers probe for this interface and install a closure.
type Observable interface {
	SetFlushObserver(FlushObserver)
}

// Reopener is implemented by logs that can come back after Close with their
// contents intact (MemoryLog and SegmentedLog): what lets a site crash and
// recover in-process instead of being rebuilt around a freshly opened log.
type Reopener interface {
	Reopen() error
}

// Compactable is implemented by logs that assign log sequence numbers and
// support checkpoint-driven compaction (SegmentedLog and MemoryLog; the
// legacy single-file FileLog does not). The checkpoint manager drives it:
// a fuzzy snapshot at horizon H makes every record below H redundant for
// redo, except Prepared records of still-undecided (in-doubt) transactions,
// which must survive for ACP termination.
type Compactable interface {
	Log
	// DurableLSN returns the LSN of the last durably appended record
	// (0 when the log is empty). LSNs start at 1 and increase by one per
	// record in append order.
	DurableLSN() uint64
	// AppendedBytes returns the cumulative bytes appended over the log's
	// lifetime (monotone; compaction does not decrease it). The checkpoint
	// manager's bytes-since-last-checkpoint trigger reads it.
	AppendedBytes() uint64
	// SizeBytes returns the currently retained log volume.
	SizeBytes() uint64
	// Segments returns the retained segment count (1 record = 1 unit for
	// the in-memory log).
	Segments() int
	// Compact removes segments wholly below horizon that contain no
	// Prepared record of a transaction still undecided as of horizon,
	// returning how many were removed. Compact(0) is a no-op.
	Compact(horizon uint64) (removed int, err error)
}

// ---- In-memory backend ----

// MemoryLog is a Log kept in process memory. It survives the simulated site
// crashes used by the failure injector (the site's volatile state is
// discarded; the log object is handed to the recovered site). It is
// Compactable — each record is its own "segment" — so simulated experiments
// exercise the same checkpoint/compaction machinery as file-backed sites.
type MemoryLog struct {
	mu      sync.Mutex
	recs    []Record
	closed  bool
	flushes uint64
	records uint64

	nextLSN  uint64
	appended uint64
	size     uint64
	// pins feeds Compact's in-doubt pinning rule (shared with SegmentedLog).
	pins pinTracker

	flushObs atomic.Pointer[FlushObserver]
}

// NewMemory returns an empty in-memory log.
func NewMemory() *MemoryLog {
	return &MemoryLog{nextLSN: 1, pins: newPinTracker()}
}

// estimateSize approximates a record's serialized footprint; the in-memory
// log never marshals, but the checkpoint manager's bytes trigger and the
// monitor's log-volume gauge still need a monotone byte signal.
func estimateSize(r *Record) uint64 {
	n := 48 + len(r.Tx.Site) + len(r.Coordinator) + len(r.TS.Site) + len(r.Ballot.Site)
	for _, p := range r.Participants {
		n += 8 + len(p)
	}
	for _, p := range r.Voters {
		n += 8 + len(p)
	}
	for _, w := range r.Writes {
		n += 20 + len(w.Item)
	}
	return uint64(n)
}

// Append implements Log.
func (l *MemoryLog) Append(r Record) error {
	return l.AppendBatch([]Record{r})
}

// SetFlushObserver implements Observable.
func (l *MemoryLog) SetFlushObserver(f FlushObserver) {
	if f == nil {
		l.flushObs.Store(nil)
		return
	}
	l.flushObs.Store(&f)
}

// AppendBatch implements Log.
func (l *MemoryLog) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if obs := l.flushObs.Load(); obs != nil {
		start := time.Now()
		defer func() { (*obs)(time.Since(start), uint64(len(recs))) }()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	for _, r := range recs {
		// Deep-copy slices so callers cannot mutate logged state.
		r.Writes = append([]model.WriteRecord(nil), r.Writes...)
		r.Participants = append([]model.SiteID(nil), r.Participants...)
		r.Voters = append([]model.SiteID(nil), r.Voters...)
		r.LSN = l.nextLSN
		l.nextLSN++
		l.pins.track(r.Type, r.Tx, r.LSN)
		sz := estimateSize(&r)
		l.appended += sz
		l.size += sz
		l.recs = append(l.recs, r)
	}
	l.flushes++
	l.records += uint64(len(recs))
	return nil
}

// DurableLSN implements Compactable.
func (l *MemoryLog) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// AppendedBytes implements Compactable.
func (l *MemoryLog) AppendedBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// SizeBytes implements Compactable.
func (l *MemoryLog) SizeBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Segments implements Compactable: each retained record counts as one unit.
func (l *MemoryLog) Segments() int { return l.Len() }

// Compact implements Compactable: records below horizon are dropped unless
// they are Prepared records of transactions undecided as of horizon (the
// in-doubt pin — those must survive for commit-protocol termination).
func (l *MemoryLog) Compact(horizon uint64) (int, error) {
	if horizon == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.recs[:0]
	removed := 0
	for _, r := range l.recs {
		pinnable := r.Type == RecPrepared || r.Type == RecElect || r.Type == RecPreDecide
		if r.LSN >= horizon || (pinnable && l.pins.pinned(r.Tx, horizon)) {
			kept = append(kept, r)
			continue
		}
		l.size -= estimateSize(&r)
		removed++
	}
	// Zero the tail so dropped records are collectable.
	for i := len(kept); i < len(l.recs); i++ {
		l.recs[i] = Record{}
	}
	l.recs = kept
	l.pins.prune(horizon)
	return removed, nil
}

// ReadAll implements Log.
func (l *MemoryLog) ReadAll() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Close implements Log. A closed memory log can still be read (recovery
// reads the log of a crashed site).
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Reopen implements Reopener: a closed memory log becomes appendable again,
// modelling the disk being remounted by the recovered site.
func (l *MemoryLog) Reopen() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = false
	return nil
}

// Len returns the number of records (for tests and monitors).
func (l *MemoryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// BatchStats implements the BatchStats interface.
func (l *MemoryLog) BatchStats() (flushes, records uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushes, l.records
}

// ---- File backend ----

// FileOptions configures a FileLog.
type FileOptions struct {
	// Sync fsyncs every force-write cycle — the textbook force-write; when
	// false the log is flushed but not synced, trading durability for speed
	// in classroom experiments.
	Sync bool
	// NoGroupCommit disables the committer goroutine: each append marshals,
	// writes, flushes and fsyncs individually under the log mutex. Used by
	// ablation benchmarks; production keeps group commit on.
	NoGroupCommit bool
}

// batchReq is one caller's pre-marshalled payload parked on the committer.
type batchReq struct {
	payload []byte
	records uint64
	done    chan error // buffered(1)
}

// FileLog is a JSON-lines file-backed Log for real deployments.
type FileLog struct {
	opts FileOptions
	path string

	// mu guards the open/closed lifecycle; the committer goroutine owns the
	// file handle and writer between Open and the post-shutdown Close steps.
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	closed   bool
	inflight sync.WaitGroup // appends accepted but not yet force-written
	// ioMu serializes force-write cycles against ReadAll, so a reader can
	// never observe a half-written batch as a torn tail. Lock order: mu or
	// the committer's ownership first, then ioMu.
	ioMu sync.Mutex

	reqCh  chan *batchReq
	stopCh chan struct{}
	doneCh chan struct{} // closed when the committer has drained and exited

	flushes  atomic.Uint64
	records  atomic.Uint64
	flushObs atomic.Pointer[FlushObserver]
}

// OpenFile opens (creating if needed) a group-committing file log at path.
// When sync is true every force-write cycle is fsynced.
func OpenFile(path string, sync bool) (*FileLog, error) {
	return OpenFileWith(path, FileOptions{Sync: sync})
}

// OpenFileWith opens a file log with explicit options. A torn tail left by
// a crash mid-force is truncated away first: appending after an unparsable
// line would strand the new records beyond recovery's replay horizon.
func OpenFileWith(path string, opts FileOptions) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := truncateTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &FileLog{
		opts: opts,
		path: path,
		f:    f,
		w:    bufio.NewWriter(f),
	}
	if !opts.NoGroupCommit {
		l.reqCh = make(chan *batchReq, 64)
		l.stopCh = make(chan struct{})
		l.doneCh = make(chan struct{})
		go l.commitLoop()
	}
	return l, nil
}

// truncateTornTail chops the file back to the end of its last complete,
// parsable record. Everything past that point is a torn batch tail from a
// crash mid-force; replay would stop there anyway, and leaving it in place
// would strand every record appended afterwards.
func truncateTornTail(f *os.File) error {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	valid := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		end := valid + int64(len(line)) + 1 // +1 for the newline
		if end > size {
			// Final line lost its newline in the tear. A forced (acked)
			// record always reaches disk with its newline, so this one was
			// never acknowledged — drop it even if the JSON parses.
			break
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			break
		}
		valid = end
	}
	if err := sc.Err(); err != nil {
		// Do NOT truncate on scan errors (e.g. a line over the scanner
		// cap): the bytes past `valid` might be an acknowledged oversized
		// record, and destroying forced data is worse than failing the
		// open loudly.
		return err
	}
	if valid < size {
		if err := f.Truncate(valid); err != nil {
			return err
		}
	}
	return nil
}

// marshalLines renders records as JSON lines; marshalling happens in the
// caller's goroutine so the committer's cycle is pure I/O.
func marshalLines(recs []Record) ([]byte, error) {
	var buf []byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("wal: marshal record: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return buf, nil
}

// Append implements Log.
func (l *FileLog) Append(r Record) error {
	return l.AppendBatch([]Record{r})
}

// AppendBatch implements Log. With group commit enabled the call parks on
// the committer and returns once its batch — possibly merged with other
// concurrent appends — has been force-written.
func (l *FileLog) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	payload, err := marshalLines(recs)
	if err != nil {
		return err
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: append to closed log %s", l.path)
	}
	if l.opts.NoGroupCommit {
		defer l.mu.Unlock()
		return l.forceLocked(payload, uint64(len(recs)))
	}
	l.inflight.Add(1)
	l.mu.Unlock()
	defer l.inflight.Done()

	req := &batchReq{payload: payload, records: uint64(len(recs)), done: make(chan error, 1)}
	l.reqCh <- req
	return <-req.done
}

// forceLocked writes payload through one buffer/flush/fsync cycle. Callers
// either hold l.mu (no-group-commit path) or are the committer goroutine,
// which owns the file handle exclusively while running; ioMu additionally
// fences concurrent ReadAll scans out of the cycle.
func (l *FileLog) forceLocked(payload []byte, records uint64) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if obs := l.flushObs.Load(); obs != nil {
		start := time.Now()
		defer func() { (*obs)(time.Since(start), records) }()
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: write %s: %w", l.path, err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush %s: %w", l.path, err)
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync %s: %w", l.path, err)
		}
	}
	l.flushes.Add(1)
	l.records.Add(records)
	return nil
}

// commitLoop is the group committer: it takes the first parked request,
// greedily drains every other request already waiting, concatenates their
// payloads and pays one force-write for the whole batch.
func (l *FileLog) commitLoop() {
	defer close(l.doneCh)
	for {
		select {
		case req := <-l.reqCh:
			l.commitBatch(req)
		case <-l.stopCh:
			// Close waits for in-flight appends before stopping, so one
			// final drain empties the channel.
			for {
				select {
				case req := <-l.reqCh:
					l.commitBatch(req)
				default:
					return
				}
			}
		}
	}
}

// commitBatch coalesces req with everything else queued and force-writes
// the merged payload, then reports the outcome to every parked caller.
func (l *FileLog) commitBatch(first *batchReq) {
	batch := []*batchReq{first}
	payload := first.payload
	records := first.records
drain:
	for {
		select {
		case req := <-l.reqCh:
			batch = append(batch, req)
			payload = append(payload, req.payload...)
			records += req.records
		default:
			break drain
		}
	}
	err := l.forceLocked(payload, records)
	for _, req := range batch {
		req.done <- err
	}
}

// ReadAll implements Log. It tolerates a torn final line (a crash mid-write,
// possibly mid-batch) by stopping replay there — every record completely
// written before the tear is replayed, the standard recovery rule for
// line-framed logs. Holding ioMu keeps the scan from racing a force-write
// cycle and mistaking a half-written batch for a torn tail.
func (l *FileLog) ReadAll() ([]Record, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	f, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen %s: %w", l.path, err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			// Torn tail record: stop replay here.
			break
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return recs, fmt.Errorf("wal: scan %s: %w", l.path, err)
	}
	return recs, nil
}

// BatchStats implements the BatchStats interface.
func (l *FileLog) BatchStats() (flushes, records uint64) {
	return l.flushes.Load(), l.records.Load()
}

// SetFlushObserver implements Observable.
func (l *FileLog) SetFlushObserver(f FlushObserver) {
	if f == nil {
		l.flushObs.Store(nil)
		return
	}
	l.flushObs.Store(&f)
}

// Close implements Log: it stops accepting appends, waits for the committer
// to force every accepted batch, then flushes and closes the file. A failed
// final flush is reported — silently dropping it would lose tail records.
func (l *FileLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	if l.reqCh != nil {
		l.inflight.Wait() // all accepted appends are parked or done
		close(l.stopCh)
		<-l.doneCh // committer drained the queue and exited
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	flushErr := l.w.Flush()
	closeErr := l.f.Close()
	l.f = nil
	if flushErr != nil {
		return fmt.Errorf("wal: flush %s on close: %w", l.path, flushErr)
	}
	return closeErr
}
