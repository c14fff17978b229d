package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// ErrCorrupt marks a record whose checksum does not match its payload —
// positive corruption detection, not a parse-failure heuristic. A torn tail
// (an incomplete final frame left by a crash mid-force) is NOT corruption
// and is truncated away; ErrCorrupt means a fully framed record failed its
// CRC.
var ErrCorrupt = errors.New("wal: corrupt record (crc mismatch)")

// DefaultSegmentBytes is the rotation threshold when SegmentOptions leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

const (
	segSuffix     = ".seg"
	segTmpSuffix  = ".seg-rewrite"
	segHeaderSize = 24 // magic(8) + first LSN(8) + codec(1) + flags(1) + reserved(6)
)

// segFlagSparse (header flags bit) marks a segment rewritten by compaction
// down to its pinned records: frames are no longer LSN-dense, so each one is
// prefixed with its explicit 8-byte LSN. Pre-flag segments carry a zero
// flags byte (it was reserved) and parse as dense.
const segFlagSparse = 1 << 0

var segMagic = [8]byte{'R', 'B', 'W', 'S', 'E', 'G', '1', 0}

// errRedundantSparse marks a sparse segment whose LSN range was already
// covered by the preceding (dense) segment — the leftover of a crash between
// a sparse rewrite's rename and the removal of the original. The original
// is a superset, so the leftover is simply deleted at open.
var errRedundantSparse = errors.New("wal: redundant sparse rewrite leftover")

// SegmentOptions configures a SegmentedLog.
type SegmentOptions struct {
	// Sync fsyncs every force-write cycle (and every segment seal); when
	// false the log is flushed but not synced, trading durability for speed
	// in classroom experiments.
	Sync bool
	// SegmentBytes is the rotation threshold; a segment is sealed once the
	// next batch would push it past this size. <= 0 selects
	// DefaultSegmentBytes. A single batch larger than the threshold still
	// lands in one segment (batches never split).
	SegmentBytes int64
	// NoGroupCommit disables the committer goroutine: each append writes,
	// flushes and fsyncs individually under the log mutex (ablation knob).
	NoGroupCommit bool
}

// segMeta describes one segment file.
type segMeta struct {
	path    string
	sparse  bool // compaction rewrite: pinned records only, explicit LSNs
	first   uint64
	last    uint64 // == first-1 while empty
	size    int64
	records int
}

// segReq is one caller's pre-framed payload parked on the committer.
type segReq struct {
	payload []byte
	metas   []segRecMeta
	lazy    bool       // every record is Lazy
	done    chan error // buffered(1)
}

// segRecMeta carries the tracking identity of one framed record.
type segRecMeta struct {
	typ RecType
	tx  model.TxID
}

// SegmentedLog is the file backend: an append-only sequence of rotated
// segment files, each opening with a header (magic, first LSN, codec byte,
// flags) and carrying length-prefixed, CRC32-checksummed binary frames. It
// group-commits, assigns a log sequence number to every record, and
// supports checkpoint-driven compaction:
// segments wholly below the replay horizon are deleted unless they hold a
// Prepared record of a still-undecided transaction.
type SegmentedLog struct {
	opts SegmentOptions
	dir  string

	// mu guards the open/closed lifecycle.
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	// ioMu fences force-write cycles, rotation and compaction against
	// ReadAll, so a reader never observes a half-written batch and never
	// races a segment deletion.
	ioMu    sync.Mutex
	f       *os.File
	w       *bufio.Writer
	active  segMeta
	sealed  []segMeta
	nextLSN uint64
	// pins feeds Compact's in-doubt pinning rule (shared with MemoryLog).
	pins pinTracker

	durable   atomic.Uint64
	size      atomic.Uint64
	appended  atomic.Uint64
	flushes   atomic.Uint64
	records   atomic.Uint64
	compacted atomic.Uint64
	rewrites  atomic.Uint64
	flushObs  atomic.Pointer[FlushObserver]

	reqCh  chan *segReq
	stopCh chan struct{}
	doneCh chan struct{}
}

// OpenSegmented opens (creating if needed) a segmented log in dir. Existing
// segments are scanned to rebuild the LSN sequence and the in-doubt pin
// maps; a torn tail on the newest segment is truncated away; a fully framed
// record with a bad CRC fails the open with ErrCorrupt, and so does a file
// without a segment header or with a codec byte other than binary. A fresh
// active segment is always started.
func OpenSegmented(dir string, opts SegmentOptions) (*SegmentedLog, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &SegmentedLog{opts: opts, dir: dir}
	if err := l.load(); err != nil {
		return nil, err
	}
	return l, nil
}

// load brings the log up from what its directory holds: scan the segments,
// rebuild the LSN sequence and pin maps, start a fresh active segment and
// the committer. Open and Reopen share it; the caller owns l exclusively.
func (l *SegmentedLog) load() error {
	l.nextLSN = 1
	l.pins = newPinTracker()
	l.sealed = nil
	l.size.Store(0)

	paths, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i, path := range paths {
		m, recs, err := l.scanSegment(path, i == len(paths)-1)
		if errors.Is(err, errRedundantSparse) {
			os.Remove(path) //nolint:errcheck
			continue
		}
		if err != nil {
			return err
		}
		if m.records == 0 {
			if m.size > segHeaderSize {
				// Bytes are present but nothing parsed: refuse to guess.
				return fmt.Errorf("wal: segment %s: unreadable (no records in %d bytes)", path, m.size)
			}
			// Nothing acknowledged ever lived here (a crash between segment
			// creation and the first flush); drop the empty shell.
			os.Remove(path) //nolint:errcheck
			continue
		}
		for i := range recs {
			l.pins.track(recs[i].Type, recs[i].Tx, recs[i].LSN)
		}
		l.nextLSN = m.last + 1
		l.size.Add(uint64(m.size))
		l.sealed = append(l.sealed, m)
	}
	l.durable.Store(l.nextLSN - 1)

	if err := l.startSegmentLocked(); err != nil {
		return err
	}
	if !l.opts.NoGroupCommit {
		l.reqCh = make(chan *segReq, 64)
		l.stopCh = make(chan struct{})
		l.doneCh = make(chan struct{})
		go l.commitLoop()
	}
	return nil
}

// Reopen implements Reopener: a closed log comes back exactly as a fresh
// OpenSegmented of its directory would — the in-process counterpart of a
// crashed site's process restarting on the same disk. Lifetime counters and
// the flush observer carry over.
func (l *SegmentedLog) Reopen() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		return fmt.Errorf("wal: reopen of open log %s", l.dir)
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if err := l.load(); err != nil {
		return err
	}
	l.closed = false
	return nil
}

// Dir returns the log's segment directory (checkpoint snapshots live next
// to the segments).
func (l *SegmentedLog) Dir() string { return l.dir }

// listSegments returns the segment paths in name order; names are
// zero-padded first-LSNs, so name order is LSN order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), segTmpSuffix) {
			// An interrupted sparse rewrite; the original segment survives.
			os.Remove(filepath.Join(dir, e.Name())) //nolint:errcheck
			continue
		}
		if strings.HasSuffix(e.Name(), segSuffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%020d%s", first, segSuffix)
}

// scanSegment reads a segment from disk, returning its metadata and
// records. When tail is true (the newest segment) an incomplete final frame
// is truncated away — it is the torn remnant of a crash mid-force and was
// never acknowledged. First LSNs come from the segment header.
func (l *SegmentedLog) scanSegment(path string, tail bool) (segMeta, []Record, error) {
	m := segMeta{path: path, first: l.nextLSN}
	f, err := os.Open(path)
	if err != nil {
		return m, nil, fmt.Errorf("wal: open segment %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return m, nil, fmt.Errorf("wal: stat segment %s: %w", path, err)
	}
	if st.Size() == 0 {
		m.last = m.first - 1
		return m, nil, nil
	}

	var hdr [segHeaderSize]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return m, nil, fmt.Errorf("wal: read segment header %s: %w", path, err)
	}
	if n < segHeaderSize {
		magic := min(n, len(segMagic))
		if !tail || !bytes.Equal(hdr[:magic], segMagic[:magic]) {
			return m, nil, fmt.Errorf("wal: segment %s: truncated header", path)
		}
		m.last = m.first - 1
		return m, nil, nil // torn header: nothing acknowledged
	}
	if [8]byte(hdr[0:8]) != segMagic {
		return m, nil, fmt.Errorf("wal: %s: not a log segment (no header magic)", path)
	}
	if hdr[16] != codecIDBinary {
		return m, nil, fmt.Errorf("wal: segment %s: unknown codec id %d", path, hdr[16])
	}
	first := binary.LittleEndian.Uint64(hdr[8:16])
	sparse := hdr[17]&segFlagSparse != 0
	if first < l.nextLSN {
		if sparse {
			// A crash between a sparse rewrite's rename and the removal of
			// the original left both behind; the original (scanned first —
			// lower first LSN, lower name) is a superset of this one. The
			// sentinel travels wrapped in segment context like every other
			// scan error, so callers must match it with errors.Is.
			return m, nil, fmt.Errorf("wal: segment %s: %w", path, errRedundantSparse)
		}
		return m, nil, fmt.Errorf("wal: segment %s: first LSN %d overlaps sequence at %d", path, first, l.nextLSN)
	}
	m.first, m.sparse = first, sparse
	var recs []Record
	var validSize int64
	if sparse {
		recs, validSize, err = readSparseFrames(f, first, segHeaderSize)
	} else {
		recs, validSize, err = readFrames(f, m.first, segHeaderSize, tail)
	}
	if err != nil {
		return m, nil, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	if validSize < st.Size() {
		if err := os.Truncate(path, validSize); err != nil {
			return m, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	m.size = validSize
	m.records = len(recs)
	m.last = m.first + uint64(len(recs)) - 1
	if sparse && len(recs) > 0 {
		m.last = recs[len(recs)-1].LSN
	}
	return m, recs, nil
}

// readFrames parses framed records from r starting at LSN first. offset is
// the file position of the first frame (for torn-tail truncation
// reporting); tail enables torn-tail tolerance. It returns the records and
// the file size up to the end of the last complete frame.
func readFrames(r io.Reader, first uint64, offset int64, tail bool) ([]Record, int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []Record
	valid := offset
	lsn := first
	for {
		var hdr [frameHeaderSize]byte
		n, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return recs, valid, nil
		}
		if err == io.ErrUnexpectedEOF {
			if tail {
				return recs, valid, nil // torn frame header
			}
			return recs, valid, fmt.Errorf("truncated frame header at offset %d (n=%d)", valid, n)
		}
		if err != nil {
			return recs, valid, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxFrameSize {
			if tail {
				return recs, valid, nil // garbage length in a torn tail
			}
			return recs, valid, fmt.Errorf("frame at offset %d: implausible length %d: %w", valid, length, ErrCorrupt)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if (err == io.ErrUnexpectedEOF || err == io.EOF) && tail {
				return recs, valid, nil // torn payload
			}
			return recs, valid, fmt.Errorf("frame at offset %d: %w", valid, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			// The frame is complete — its bytes are all present — so this is
			// bitrot, not a torn write: refuse to silently drop forced data.
			return recs, valid, fmt.Errorf("frame at offset %d (lsn %d): %w", valid, lsn, ErrCorrupt)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, valid, fmt.Errorf("frame at offset %d: %w", valid, err)
		}
		rec.LSN = lsn
		lsn++
		recs = append(recs, rec)
		valid += int64(frameHeaderSize) + int64(length)
	}
}

// readSparseFrames parses a sparse (compaction-rewritten) segment: every
// frame is prefixed with its explicit 8-byte LSN, and LSNs must be strictly
// increasing starting at the header's first LSN. Sparse segments are written
// whole (temp file + rename), never appended to, so there is no torn-tail
// tolerance: any truncation or checksum failure is corruption.
func readSparseFrames(r io.Reader, first uint64, offset int64) ([]Record, int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []Record
	valid := offset
	prev := first - 1
	for {
		var pre [8 + frameHeaderSize]byte
		n, err := io.ReadFull(br, pre[:])
		if err == io.EOF {
			return recs, valid, nil
		}
		if err == io.ErrUnexpectedEOF {
			return recs, valid, fmt.Errorf("truncated sparse frame at offset %d (n=%d)", valid, n)
		}
		if err != nil {
			return recs, valid, err
		}
		lsn := binary.LittleEndian.Uint64(pre[0:8])
		length := binary.LittleEndian.Uint32(pre[8:12])
		sum := binary.LittleEndian.Uint32(pre[12:16])
		if lsn <= prev {
			return recs, valid, fmt.Errorf("sparse frame at offset %d: LSN %d not after %d: %w", valid, lsn, prev, ErrCorrupt)
		}
		if length > maxFrameSize {
			return recs, valid, fmt.Errorf("sparse frame at offset %d: implausible length %d: %w", valid, length, ErrCorrupt)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, valid, fmt.Errorf("sparse frame at offset %d: %w", valid, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, valid, fmt.Errorf("sparse frame at offset %d (lsn %d): %w", valid, lsn, ErrCorrupt)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, valid, fmt.Errorf("sparse frame at offset %d: %w", valid, err)
		}
		rec.LSN = lsn
		prev = lsn
		recs = append(recs, rec)
		valid += 8 + int64(frameHeaderSize) + int64(length)
	}
}

// startSegmentLocked creates a fresh active segment at nextLSN. Callers
// hold ioMu or have exclusive ownership (Open).
func (l *SegmentedLog) startSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[0:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], l.nextLSN)
	hdr[16] = codecIDBinary
	l.f = f
	l.w = bufio.NewWriter(f)
	if _, err := l.w.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", path, err)
	}
	l.active = segMeta{
		path:  path,
		first: l.nextLSN,
		last:  l.nextLSN - 1,
		size:  segHeaderSize,
	}
	l.size.Add(segHeaderSize)
	SyncDir(l.dir)
	return nil
}

// rotateLocked seals the active segment and starts a new one. ioMu held.
func (l *SegmentedLog) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush %s: %w", l.active.path, err)
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync %s: %w", l.active.path, err)
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.active.path, err)
	}
	l.sealed = append(l.sealed, l.active)
	return l.startSegmentLocked()
}

// marshalFrames renders records as framed payloads plus tracking metadata;
// marshalling happens in the caller's goroutine so the committer's cycle is
// pure I/O.
func marshalFrames(recs []Record) ([]byte, []segRecMeta) {
	var buf, scratch []byte
	metas := make([]segRecMeta, 0, len(recs))
	for i := range recs {
		scratch = appendRecord(scratch[:0], &recs[i])
		buf = appendFrame(buf, scratch)
		metas = append(metas, segRecMeta{typ: recs[i].Type, tx: recs[i].Tx})
	}
	return buf, metas
}

// Append implements Log.
func (l *SegmentedLog) Append(r Record) error {
	return l.AppendBatch([]Record{r})
}

// AppendBatch implements Log. With group commit enabled the call parks on
// the committer and returns once its batch — possibly merged with other
// concurrent appends — has been force-written.
func (l *SegmentedLog) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	payload, metas := marshalFrames(recs)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: append to closed log %s", l.dir)
	}
	if l.opts.NoGroupCommit {
		defer l.mu.Unlock()
		return l.force(payload, metas)
	}
	l.inflight.Add(1)
	l.mu.Unlock()
	defer l.inflight.Done()

	req := &segReq{payload: payload, metas: metas, lazy: true, done: make(chan error, 1)}
	for i := range recs {
		req.lazy = req.lazy && recs[i].Lazy
	}
	l.reqCh <- req
	return <-req.done
}

// force writes one batch through a rotate-if-needed / write / flush / fsync
// cycle and assigns LSNs in commit order. Callers either hold l.mu
// (no-group-commit path) or are the committer goroutine.
func (l *SegmentedLog) force(payload []byte, metas []segRecMeta) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if obs := l.flushObs.Load(); obs != nil {
		start := time.Now()
		defer func() { (*obs)(time.Since(start), uint64(len(metas))) }()
	}
	if l.active.records > 0 && l.active.size+int64(len(payload)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: write %s: %w", l.active.path, err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush %s: %w", l.active.path, err)
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync %s: %w", l.active.path, err)
		}
	}
	for _, m := range metas {
		l.pins.track(m.typ, m.tx, l.nextLSN)
		l.nextLSN++
	}
	l.active.last = l.nextLSN - 1
	l.active.records += len(metas)
	l.active.size += int64(len(payload))
	l.size.Add(uint64(len(payload)))
	l.appended.Add(uint64(len(payload)))
	l.durable.Store(l.nextLSN - 1)
	l.flushes.Add(1)
	l.records.Add(uint64(len(metas)))
	return nil
}

// commitLoop is the group committer: take the first parked request,
// greedily drain the rest, pay one force-write for the merged batch.
func (l *SegmentedLog) commitLoop() {
	defer close(l.doneCh)
	for {
		select {
		case req := <-l.reqCh:
			l.commitBatch(req)
		case <-l.stopCh:
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

// lazyLinger bounds how long a batch of only Lazy records waits for an eager
// append to share its force-write cycle: several fsyncs' worth, yet short
// next to the ack timeouts that bound the phase 2 it delays.
const lazyLinger = time.Millisecond

func (l *SegmentedLog) commitBatch(first *segReq) {
	batch := []*segReq{first}
	payload := first.payload
	metas := first.metas
	eager := !first.lazy
	take := func(req *segReq) {
		batch = append(batch, req)
		payload = append(payload, req.payload...)
		metas = append(metas, req.metas...)
		eager = eager || !req.lazy
	}
drain:
	for {
		select {
		case req := <-l.reqCh:
			take(req)
		default:
			break drain
		}
	}
	if !eager {
		// Nobody is waiting on these records yet: let the next eager
		// append pay the force, or force after the linger. (Close waits
		// for in-flight appends before stopping the committer, so the
		// linger needs no stop case.)
		timer := time.NewTimer(lazyLinger)
	linger:
		for !eager {
			select {
			case req := <-l.reqCh:
				take(req)
			case <-timer.C:
				break linger
			}
		}
		timer.Stop()
	}
	err := l.force(payload, metas)
	for _, req := range batch {
		req.done <- err
	}
}

// ReadAll implements Log: every retained record across all segments in LSN
// order. LSN gaps appear where compaction removed whole segments.
func (l *SegmentedLog) ReadAll() ([]Record, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	var out []Record
	for _, m := range l.sealed {
		recs, err := readSegmentFile(m, false)
		if err != nil {
			return out, err
		}
		out = append(out, recs...)
	}
	recs, err := readSegmentFile(l.active, true)
	if err != nil {
		return out, err
	}
	return append(out, recs...), nil
}

// readSegmentFile re-reads a known segment from disk.
func readSegmentFile(m segMeta, tail bool) ([]Record, error) {
	f, err := os.Open(m.path)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen segment %s: %w", m.path, err)
	}
	defer f.Close()
	if _, err := f.Seek(segHeaderSize, io.SeekStart); err != nil {
		return nil, err
	}
	var recs []Record
	if m.sparse {
		recs, _, err = readSparseFrames(f, m.first, segHeaderSize)
	} else {
		recs, _, err = readFrames(f, m.first, segHeaderSize, tail)
	}
	if err != nil {
		return recs, fmt.Errorf("wal: segment %s: %w", m.path, err)
	}
	return recs, nil
}

// DurableLSN implements Compactable.
func (l *SegmentedLog) DurableLSN() uint64 { return l.durable.Load() }

// AppendedBytes implements Compactable.
func (l *SegmentedLog) AppendedBytes() uint64 { return l.appended.Load() }

// SizeBytes implements Compactable.
func (l *SegmentedLog) SizeBytes() uint64 { return l.size.Load() }

// Segments implements Compactable (sealed segments plus the active one).
func (l *SegmentedLog) Segments() int {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return len(l.sealed) + 1
}

// Compacted returns the lifetime count of segments removed by compaction.
func (l *SegmentedLog) Compacted() uint64 { return l.compacted.Load() }

// Rewrites returns the lifetime count of pinned segments compaction rewrote
// down to their pinned records (sparse segments).
func (l *SegmentedLog) Rewrites() uint64 { return l.rewrites.Load() }

// Compact implements Compactable: sealed segments whose records all lie
// below horizon are deleted, except where a segment holds recovery-critical
// records (Prepared/Elect/PreDecide) of a transaction still undecided as of
// horizon — the in-doubt pins 2PC/3PC termination needs. Pinning is
// record-granular: instead of retaining a whole segment for a handful of
// pinned records, the segment is rewritten down to just those records as a
// sparse segment (explicit per-frame LSNs), so one long-lived orphan bounds
// retained log space by its own records, not by every segment it shares
// with unrelated traffic.
func (l *SegmentedLog) Compact(horizon uint64) (int, error) {
	if horizon == 0 {
		return 0, nil
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	pins := l.pins.pins(horizon)
	kept := l.sealed[:0]
	removed := 0
	var firstErr error
	for _, m := range l.sealed {
		if m.last >= horizon {
			kept = append(kept, m)
			continue
		}
		if pinInRange(pins, m.first, m.last) {
			nm, err := l.rewriteSparse(m, pins)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			kept = append(kept, nm)
			continue
		}
		if err := os.Remove(m.path); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: compact %s: %w", m.path, err)
			}
			kept = append(kept, m)
			continue
		}
		l.size.Add(^uint64(m.size - 1)) // subtract
		removed++
	}
	l.sealed = kept
	if removed > 0 {
		SyncDir(l.dir)
		l.compacted.Add(uint64(removed))
	}
	l.pins.prune(horizon)
	return removed, firstErr
}

// rewriteSparse shrinks a fully-below-horizon segment down to its pinned
// records. The replacement is written to a temp file and renamed into place;
// when the first pinned LSN moved the file name changes and the original is
// removed after the rename — a crash in between leaves a dense superset plus
// a redundant sparse file, which open-time scanning deletes. On any error
// the original segment is kept untouched.
func (l *SegmentedLog) rewriteSparse(m segMeta, pins []uint64) (segMeta, error) {
	recs, err := readSegmentFile(m, false)
	if err != nil {
		return m, fmt.Errorf("wal: sparse rewrite read %s: %w", m.path, err)
	}
	keep := recs[:0]
	for _, r := range recs {
		if pinHas(pins, r.LSN) {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 || len(keep) == len(recs) {
		return m, nil // nothing pinned here after all, or nothing to shed
	}

	var buf []byte
	var hdr [segHeaderSize]byte
	copy(hdr[0:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], keep[0].LSN)
	hdr[16] = codecIDBinary
	hdr[17] = segFlagSparse
	buf = append(buf, hdr[:]...)
	var scratch []byte
	for i := range keep {
		scratch = appendRecord(scratch[:0], &keep[i])
		buf = binary.LittleEndian.AppendUint64(buf, keep[i].LSN)
		buf = appendFrame(buf, scratch)
	}

	tmp := m.path + segTmpSuffix
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return m, fmt.Errorf("wal: sparse rewrite %s: %w", m.path, err)
	}
	newPath := filepath.Join(l.dir, segName(keep[0].LSN))
	if err := os.Rename(tmp, newPath); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return m, fmt.Errorf("wal: sparse rewrite rename %s: %w", newPath, err)
	}
	if newPath != m.path {
		os.Remove(m.path) //nolint:errcheck // redundant leftover is harmless
	}
	SyncDir(l.dir)

	l.size.Add(^uint64(m.size - 1)) // subtract
	l.size.Add(uint64(len(buf)))
	l.rewrites.Add(1)
	return segMeta{
		path:    newPath,
		sparse:  true,
		first:   keep[0].LSN,
		last:    keep[len(keep)-1].LSN,
		size:    int64(len(buf)),
		records: len(keep),
	}, nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pinInRange reports whether any pinned LSN falls in [first, last].
func pinInRange(pins []uint64, first, last uint64) bool {
	i := sort.Search(len(pins), func(i int) bool { return pins[i] >= first })
	return i < len(pins) && pins[i] <= last
}

// pinHas reports whether lsn is one of the (sorted) pinned LSNs.
func pinHas(pins []uint64, lsn uint64) bool {
	i := sort.Search(len(pins), func(i int) bool { return pins[i] >= lsn })
	return i < len(pins) && pins[i] == lsn
}

// BatchStats implements the BatchStats interface.
func (l *SegmentedLog) BatchStats() (flushes, records uint64) {
	return l.flushes.Load(), l.records.Load()
}

// SetFlushObserver implements Observable.
func (l *SegmentedLog) SetFlushObserver(f FlushObserver) {
	if f == nil {
		l.flushObs.Store(nil)
		return
	}
	l.flushObs.Store(&f)
}

// Close implements Log: stop accepting appends, drain the committer, seal
// the active segment.
func (l *SegmentedLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	if l.reqCh != nil {
		l.inflight.Wait()
		close(l.stopCh)
		<-l.doneCh
	}

	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	flushErr := l.w.Flush()
	var syncErr error
	if l.opts.Sync && flushErr == nil {
		syncErr = l.f.Sync()
	}
	closeErr := l.f.Close()
	if flushErr != nil {
		return fmt.Errorf("wal: flush %s on close: %w", l.active.path, flushErr)
	}
	if syncErr != nil {
		return fmt.Errorf("wal: sync %s on close: %w", l.active.path, syncErr)
	}
	return closeErr
}

// SyncDir fsyncs a directory so file creations/removals/renames within it
// are durable; best-effort (some filesystems reject directory fsync). The
// checkpoint snapshot store shares it so WAL-segment and snapshot
// durability behavior cannot diverge.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}
