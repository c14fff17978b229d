package cc

import (
	"context"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

func tx(seq uint64) model.TxID    { return model.TxID{Site: "S", Seq: seq} }
func ts(t uint64) model.Timestamp { return model.Timestamp{Time: t, Site: "S"} }
func bg() context.Context         { return context.Background() }

// admit admits op for id at the given timestamp, waiting if it must — for
// at most a few seconds, so that a test whose wait never ends fails instead
// of hanging.
func admit(m Manager, id model.TxID, at model.Timestamp, op model.Op) (int64, model.Version, error) {
	ctx, cancel := context.WithTimeout(bg(), 5*time.Second)
	defer cancel()
	return m.Admit(ctx, id, at, op, true)
}
func rec(item model.ItemID, v int64, ver model.Version) model.WriteRecord {
	return model.WriteRecord{Item: item, Value: v, Version: ver}
}

func newStore() *storage.Store {
	s := storage.New()
	s.Init(map[model.ItemID]int64{"x": 10, "y": 20, "z": 30})
	return s
}

// managers builds one of each CCP over a fresh store for conformance tests.
func managers(t *testing.T) map[string]Manager {
	t.Helper()
	out := make(map[string]Manager)
	for _, name := range Names() {
		m, err := New(name, newStore(), Options{LockTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := New("optimistic", newStore(), Options{}); err == nil {
		t.Error("unknown protocol should fail")
	}
}

func TestNewDefaultIs2PL(t *testing.T) {
	m, err := New("", newStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "2pl" {
		t.Errorf("default CCP = %s", m.Name())
	}
}

// --- Conformance suite: behaviours every CCP must share ---

func TestConformanceReadReturnsValue(t *testing.T) {
	for name, m := range managers(t) {
		v, ver, err := admit(m, tx(1), ts(1), model.Read("x"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if v != 10 || ver != 0 {
			t.Errorf("%s: Read = %d v%d, want 10 v0", name, v, ver)
		}
		m.Abort(tx(1))
	}
}

func TestConformanceCommitInstallsWrite(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 99)); err != nil {
			t.Errorf("%s: prewrite: %v", name, err)
			continue
		}
		if err := m.Commit(tx(1), []model.WriteRecord{rec("x", 99, 1)}); err != nil {
			t.Errorf("%s: commit: %v", name, err)
			continue
		}
		v, ver, err := admit(m, tx(2), ts(2), model.Read("x"))
		if err != nil || v != 99 || ver != 1 {
			t.Errorf("%s: read after commit = %d v%d (%v)", name, v, ver, err)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceAbortDiscardsWrite(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 99)); err != nil {
			t.Errorf("%s: prewrite: %v", name, err)
			continue
		}
		m.Abort(tx(1))
		v, _, err := admit(m, tx(2), ts(2), model.Read("x"))
		if err != nil || v != 10 {
			t.Errorf("%s: read after abort = %d (%v), want 10", name, v, err)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceReadYourOwnIntent(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 77)); err != nil {
			t.Errorf("%s: prewrite: %v", name, err)
			continue
		}
		v, _, err := admit(m, tx(1), ts(1), model.Read("x"))
		if err != nil || v != 77 {
			t.Errorf("%s: read-own-write = %d (%v), want 77", name, v, err)
		}
		m.Abort(tx(1))
	}
}

func TestConformanceUnknownItem(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Read("ghost")); err == nil {
			t.Errorf("%s: read of unhosted item succeeded", name)
		}
		m.Abort(tx(1))
		if _, _, err := admit(m, tx(2), ts(2), model.Write("ghost", 1)); err == nil {
			t.Errorf("%s: prewrite of unhosted item succeeded", name)
		}
		m.Abort(tx(2))
		// An operation of no known kind (decoded from the wire unchecked)
		// is refused, not taken for a write.
		if _, _, err := admit(m, tx(3), ts(3), model.Op{Kind: 9, Item: "x"}); err == nil || m.HoldsIntents(tx(3), []model.ItemID{"x"}) {
			t.Errorf("%s: operation of kind 9 admitted (%v)", name, err)
		}
		m.Abort(tx(3))
	}
}

func TestConformanceDirtyReadPrevented(t *testing.T) {
	// While tx1 has an uncommitted pre-write on x, a conflicting read by a
	// later transaction must NOT observe the dirty value. 2PL blocks it;
	// TSO/MVTSO gate it behind the intent. Either way, once tx1 commits the
	// reader sees the committed value; a reader that gets aborted instead is
	// also acceptable for TSO-family managers (rejection, not dirty read).
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 55)); err != nil {
			t.Fatalf("%s: prewrite: %v", name, err)
		}
		got := make(chan struct {
			v   int64
			err error
		}, 1)
		go func() {
			v, _, err := admit(m, tx(2), ts(2), model.Read("x"))
			got <- struct {
				v   int64
				err error
			}{v, err}
		}()
		time.Sleep(20 * time.Millisecond)
		select {
		case r := <-got:
			if r.err == nil {
				t.Errorf("%s: reader returned %d before writer resolved", name, r.v)
			}
			continue
		default: // still blocked — correct
		}
		m.Commit(tx(1), []model.WriteRecord{rec("x", 55, 1)})
		r := <-got
		if r.err == nil && r.v != 55 {
			t.Errorf("%s: blocked reader saw %d, want 55", name, r.v)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceReinstateBlocksConflicts(t *testing.T) {
	// After recovery reinstates an in-doubt transaction's write set, a
	// conflicting reader must not slip past it.
	for name, m := range managers(t) {
		if err := m.Reinstate(tx(1), ts(1), []model.WriteRecord{rec("x", 5, 1)}); err != nil {
			t.Fatalf("%s: reinstate: %v", name, err)
		}
		done := make(chan struct {
			v   int64
			err error
		}, 1)
		go func() {
			v, _, err := admit(m, tx(2), ts(2), model.Read("x"))
			done <- struct {
				v   int64
				err error
			}{v, err}
		}()
		select {
		case r := <-done:
			if r.err == nil {
				t.Errorf("%s: read of in-doubt item returned %d", name, r.v)
			}
		case <-time.After(20 * time.Millisecond):
			// blocked — correct; resolve and confirm the reader completes
			m.Commit(tx(1), []model.WriteRecord{rec("x", 5, 1)})
			r := <-done
			if r.err == nil && r.v != 5 {
				t.Errorf("%s: reader after resolution saw %d, want 5", name, r.v)
			}
		}
		m.Abort(tx(2))
		m.Abort(tx(1))
	}
}

// --- 2PL-specific ---

func Test2PLConflictingWritersSerialize(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := admit(m, tx(2), ts(2), model.Write("x", 2))
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("second writer not blocked")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(2), []model.WriteRecord{rec("x", 2, 2)})
	v, _, _ := admit(m, tx(3), ts(3), model.Read("x"))
	if v != 2 {
		t.Errorf("final value = %d, want 2", v)
	}
}

func Test2PLDeadlockAborts(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := admit(m, tx(2), ts(2), model.Write("y", 2)); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, _, err := admit(m, tx(1), ts(1), model.Write("y", 1))
		first <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_, _, err := admit(m, tx(2), ts(2), model.Write("x", 2))
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("deadlock not CC-aborted: %v", err)
	}
	m.Abort(tx(2))
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	m.Abort(tx(1))
	if m.Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
}

func Test2PLSharedReadersConcurrent(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second})
	for i := uint64(1); i <= 5; i++ {
		if _, _, err := admit(m, tx(i), ts(i), model.Read("x")); err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		m.Abort(tx(i))
	}
	if s := m.Stats(); s.Reads != 5 {
		t.Errorf("Reads = %d", s.Reads)
	}
}

// --- TSO-specific ---

func TestTSOLateReadRejected(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	// tx at ts=10 writes x and commits: wts(x)=10.
	if _, _, err := admit(m, tx(1), ts(10), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	// A read at ts=5 arrives too late.
	_, _, err := admit(m, tx(2), ts(5), model.Read("x"))
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("late read not rejected: %v", err)
	}
	if m.Stats().Rejections != 1 {
		t.Errorf("Rejections = %d", m.Stats().Rejections)
	}
}

func TestTSOLateWriteRejected(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(10), model.Read("x")); err != nil {
		t.Fatal(err) // rts(x)=10
	}
	_, _, err := admit(m, tx(2), ts(5), model.Write("x", 1))
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("late write not rejected: %v", err)
	}
}

func TestTSOReadWaitsForSmallerIntent(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(5), model.Write("x", 50)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct {
		v   int64
		err error
	}, 1)
	go func() {
		v, _, err := admit(m, tx(2), ts(10), model.Read("x"))
		done <- struct {
			v   int64
			err error
		}{v, err}
	}()
	select {
	case <-done:
		t.Fatal("read at larger ts did not wait for pending smaller intent")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 50, 1)})
	r := <-done
	if r.err != nil || r.v != 50 {
		t.Errorf("read = %d (%v), want 50", r.v, r.err)
	}
}

func TestTSOReadAtSmallerTsThanIntentProceeds(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(10), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	// A read at ts=5 precedes the pending write; it may proceed.
	v, _, err := admit(m, tx(2), ts(5), model.Read("x"))
	if err != nil || v != 10 {
		t.Errorf("read = %d (%v), want 10", v, err)
	}
	m.Abort(tx(1))
	m.Abort(tx(2))
}

func TestTSOWriteAfterIntentAbort(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(5), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	m.Abort(tx(1))
	// The aborted intent must not have advanced wts.
	if _, _, err := admit(m, tx(2), ts(6), model.Write("x", 2)); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(2), []model.WriteRecord{rec("x", 2, 1)})
	v, _, err := admit(m, tx(3), ts(7), model.Read("x"))
	if err != nil || v != 2 {
		t.Errorf("read = %d (%v)", v, err)
	}
}

// --- MVTSO-specific ---

func TestMVTSOOldReadNeverAborts(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	// Commit x=1 at ts=10.
	if _, _, err := admit(m, tx(1), ts(10), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	// A read at ts=5 succeeds under MVTSO (reads the initial version); this
	// exact case is rejected by basic TSO.
	v, _, err := admit(m, tx(2), ts(5), model.Read("x"))
	if err != nil {
		t.Fatalf("old read rejected by MVTSO: %v", err)
	}
	if v != 10 {
		t.Errorf("old read = %d, want initial 10", v)
	}
	// And a read at ts=15 sees the new version.
	v, _, err = admit(m, tx(3), ts(15), model.Read("x"))
	if err != nil || v != 1 {
		t.Errorf("new read = %d (%v), want 1", v, err)
	}
}

func TestMVTSOLateWriteUnderReadRejected(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(10), model.Read("x")); err != nil {
		t.Fatal(err) // initial version now has rts=10
	}
	_, _, err := admit(m, tx(2), ts(5), model.Write("x", 1))
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("write under a later read not rejected: %v", err)
	}
}

func TestMVTSOWriteBetweenVersions(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	// Version at ts=10.
	admit(m, tx(1), ts(10), model.Write("x", 100))
	m.Commit(tx(1), []model.WriteRecord{rec("x", 100, 1)})
	// Read at ts=20 pins version@10's rts to 20.
	if v, _, err := admit(m, tx(2), ts(20), model.Read("x")); err != nil || v != 100 {
		t.Fatalf("read = %d (%v)", v, err)
	}
	// A write at ts=15 would invalidate that read: rejected.
	if _, _, err := admit(m, tx(3), ts(15), model.Write("x", 150)); model.CauseOf(err) != model.AbortCC {
		t.Fatalf("intervening write not rejected: %v", err)
	}
	// A write at ts=25 is fine.
	if _, _, err := admit(m, tx(4), ts(25), model.Write("x", 250)); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(4), []model.WriteRecord{rec("x", 250, 2)})
	// Historical read still sees version@10.
	if v, _, err := admit(m, tx(5), ts(12), model.Read("x")); err != nil || v != 100 {
		t.Errorf("historical read = %d (%v), want 100", v, err)
	}
}

func TestMVTSOReadWaitsForCloserIntent(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(5), model.Write("x", 50)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct {
		v   int64
		err error
	}, 1)
	go func() {
		v, _, err := admit(m, tx(2), ts(10), model.Read("x"))
		done <- struct {
			v   int64
			err error
		}{v, err}
	}()
	select {
	case <-done:
		t.Fatal("read did not wait for closer pending intent")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 50, 1)})
	r := <-done
	if r.err != nil || r.v != 50 {
		t.Errorf("read = %d (%v), want 50", r.v, r.err)
	}
}

func TestMVTSOVersionChainPruned(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	for i := uint64(1); i <= maxVersionChain+10; i++ {
		if _, _, err := admit(m, tx(i), ts(i*10), model.Write("x", int64(i))); err != nil {
			t.Fatal(err)
		}
		m.Commit(tx(i), []model.WriteRecord{rec("x", int64(i), model.Version(i))})
	}
	m.mu.Lock()
	n := len(m.items["x"].versions)
	oldest := m.items["x"].versions[0]
	m.mu.Unlock()
	if n > maxVersionChain {
		t.Errorf("version chain length %d exceeds bound %d", n, maxVersionChain)
	}
	// Latest read still correct.
	v, _, err := admit(m, tx(999), ts(100000), model.Read("x"))
	if err != nil || v != int64(maxVersionChain+10) {
		t.Errorf("latest read = %d (%v)", v, err)
	}
	// A read older than the oldest kept version would need a pruned
	// version: it is rejected, never served a version written after it.
	rejected := m.Stats().Rejections
	if v, ver, err := admit(m, tx(1000), ts(50), model.Read("x")); model.CauseOf(err) != model.AbortCC {
		t.Errorf("read at ts 50 below the oldest kept %s = %d v%d (%v), want a CC abort", oldest.ts, v, ver, err)
	}
	if got := m.Stats().Rejections - rejected; got != 1 {
		t.Errorf("too-old read raised Rejections by %d, want 1", got)
	}
	// A read at exactly the oldest kept version's timestamp is served it.
	if v, ver, err := admit(m, tx(1001), oldest.ts, model.Read("x")); err != nil || v != oldest.value || ver != oldest.ver {
		t.Errorf("read at the oldest kept %s = %d v%d (%v), want %d v%d", oldest.ts, v, ver, err, oldest.value, oldest.ver)
	}
}
