package cc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func addRec(item model.ItemID, delta int64, ver model.Version) model.WriteRecord {
	return model.WriteRecord{Item: item, Value: delta, Version: ver, Delta: true}
}

// --- Conformance: blind adds on every CCP ---

func TestConformanceAddCommitsDelta(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Add("x", 7)); err != nil {
			t.Errorf("%s: preadd: %v", name, err)
			continue
		}
		if err := m.Commit(tx(1), []model.WriteRecord{addRec("x", 7, 1)}); err != nil {
			t.Errorf("%s: commit: %v", name, err)
			continue
		}
		v, _, err := admit(m, tx(2), ts(2), model.Read("x"))
		if err != nil || v != 17 {
			t.Errorf("%s: read after add = %d (%v), want 17", name, v, err)
		}
		m.Abort(tx(2))
		if m.Stats().Adds == 0 {
			t.Errorf("%s: add not counted", name)
		}
	}
}

func TestConformanceAddReadYourOwnDelta(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Add("x", 5)); err != nil {
			t.Errorf("%s: preadd: %v", name, err)
			continue
		}
		v, _, err := admit(m, tx(1), ts(1), model.Read("x"))
		if err != nil || v != 15 {
			t.Errorf("%s: read-own-add = %d (%v), want 15", name, v, err)
		}
		m.Abort(tx(1))
	}
}

func TestConformanceRepeatedAddsMerge(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Add("x", 3)); err != nil {
			t.Errorf("%s: preadd 1: %v", name, err)
			continue
		}
		if _, _, err := admit(m, tx(1), ts(1), model.Add("x", 4)); err != nil {
			t.Errorf("%s: preadd 2: %v", name, err)
			continue
		}
		// The coordinator's session merges repeated deltas into one record.
		if err := m.Commit(tx(1), []model.WriteRecord{addRec("x", 7, 1)}); err != nil {
			t.Errorf("%s: commit: %v", name, err)
			continue
		}
		v, _, err := admit(m, tx(2), ts(2), model.Read("x"))
		if err != nil || v != 17 {
			t.Errorf("%s: read = %d (%v), want 17", name, v, err)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceAbortDiscardsAdd(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := admit(m, tx(1), ts(1), model.Add("x", 9)); err != nil {
			t.Errorf("%s: preadd: %v", name, err)
			continue
		}
		m.Abort(tx(1))
		v, _, err := admit(m, tx(2), ts(2), model.Read("x"))
		if err != nil || v != 10 {
			t.Errorf("%s: read after aborted add = %d (%v), want 10", name, v, err)
		}
		m.Abort(tx(2))
	}
}

// --- 2PL split execution ---

// splitManager builds a TwoPL with a low split threshold for the tests.
func splitManager(threshold int) *TwoPL {
	return NewTwoPL(newStore(), Options{
		LockTimeout:    500 * time.Millisecond,
		SplitThreshold: threshold,
	})
}

// heat drives item past the split threshold: while holder keeps the lock,
// each no-wait add's refusal bumps the contention counter; after the holder
// releases, the next attempt splits the item.
func heat(t *testing.T, m *TwoPL, item model.ItemID, threshold int) {
	t.Helper()
	holder := tx(100)
	if _, _, err := admit(m, holder, ts(100), model.Add(item, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threshold; i++ {
		if _, _, err := m.Admit(bg(), tx(101+uint64(i)), ts(101), model.Add(item, 1), false); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("contended no-wait add = %v, want ErrWouldBlock", err)
		}
	}
	if err := m.Commit(holder, []model.WriteRecord{addRec(item, 1, 1)}); err != nil {
		t.Fatal(err)
	}
}

func Test2PLSplitFormsAndAdmitsLockFree(t *testing.T) {
	m := splitManager(2)
	heat(t, m, "x", 2)

	// The next add splits the item and admits through the slot.
	if _, _, err := m.Admit(bg(), tx(1), ts(1), model.Add("x", 5), false); err != nil {
		t.Fatalf("post-heat no-wait add: %v", err)
	}
	s := m.Stats()
	if s.Splits != 1 || s.SplitAdds == 0 {
		t.Fatalf("splits=%d splitAdds=%d, want 1 and >0", s.Splits, s.SplitAdds)
	}
	if m.SplitItems() != 1 {
		t.Fatalf("SplitItems = %d, want 1", m.SplitItems())
	}
	// Concurrent adds all admit without blocking and reconcile exactly.
	var wg sync.WaitGroup
	for i := uint64(2); i <= 9; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			if _, _, err := admit(m, tx(i), ts(i), model.Add("x", int64(i))); err != nil {
				t.Errorf("concurrent add %d: %v", i, err)
				return
			}
			if err := m.Commit(tx(i), []model.WriteRecord{addRec("x", int64(i), 1)}); err != nil {
				t.Errorf("concurrent commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	m.Commit(tx(1), []model.WriteRecord{addRec("x", 5, 1)})

	v, _, err := admit(m, tx(50), ts(50), model.Read("x"))
	if err != nil {
		t.Fatal(err)
	}
	// 10 initial + 1 (heat holder) + 5 (tx1) + sum(2..9)=44.
	if v != 60 {
		t.Fatalf("reconciled value = %d, want 60", v)
	}
	m.Abort(tx(50))
}

func Test2PLSplitReadDrains(t *testing.T) {
	m := splitManager(2)
	heat(t, m, "x", 2)
	if _, _, err := m.Admit(bg(), tx(1), ts(1), model.Add("x", 5), false); err != nil {
		t.Fatal(err)
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
		t.Fatalf("reader returned %d (%v) before the slot drained", r.v, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	// The uncommitted slot add resolves; the drain completes and the reader
	// sees the reconciled value.
	if err := m.Commit(tx(1), []model.WriteRecord{addRec("x", 5, 1)}); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.v != 16 { // 10 + 1 (heat) + 5
		t.Fatalf("drained read = %d (%v), want 16", r.v, r.err)
	}
	s := m.Stats()
	if s.Drains != 1 {
		t.Fatalf("Drains = %d, want 1", s.Drains)
	}
	if m.SplitItems() != 0 {
		t.Fatalf("SplitItems = %d after drain, want 0", m.SplitItems())
	}
	m.Abort(tx(2))
}

func Test2PLSplitWriteDrainsAndOverwrites(t *testing.T) {
	m := splitManager(2)
	heat(t, m, "x", 2)
	if _, _, err := m.Admit(bg(), tx(1), ts(1), model.Add("x", 5), false); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{addRec("x", 5, 1)})

	// An absolute write drains the slot, then installs over the reconciled
	// value.
	if _, _, err := admit(m, tx(2), ts(2), model.Write("x", 999)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx(2), []model.WriteRecord{rec("x", 999, 5)}); err != nil {
		t.Fatal(err)
	}
	v, _, err := admit(m, tx(3), ts(3), model.Read("x"))
	if err != nil || v != 999 {
		t.Fatalf("read after write = %d (%v), want 999", v, err)
	}
	m.Abort(tx(3))
}

func Test2PLNoSplitAblation(t *testing.T) {
	m := NewTwoPL(newStore(), Options{
		LockTimeout:    500 * time.Millisecond,
		SplitThreshold: 1,
		NoSplit:        true,
	})
	holder := tx(1)
	if _, _, err := admit(m, holder, ts(1), model.Add("x", 1)); err != nil {
		t.Fatal(err)
	}
	// Contended adds never split with the ablation on, no matter how hot.
	for i := uint64(0); i < 20; i++ {
		if _, _, err := m.Admit(bg(), tx(2+i), ts(2), model.Add("x", 1), false); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("no-wait add under ablation = %v, want ErrWouldBlock", err)
		}
	}
	// A blocked add behaves exactly like a blocked write: it waits for the
	// lock and proceeds after release.
	done := make(chan error, 1)
	go func() {
		_, _, err := admit(m, tx(50), ts(50), model.Add("x", 2))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("add not blocked under ablation (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(holder, []model.WriteRecord{addRec("x", 1, 1)})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(50), []model.WriteRecord{addRec("x", 2, 2)})
	s := m.Stats()
	if s.Splits != 0 || s.SplitAdds != 0 {
		t.Fatalf("ablation split stats: splits=%d splitAdds=%d, want 0/0", s.Splits, s.SplitAdds)
	}
	v, _, err := admit(m, tx(60), ts(60), model.Read("x"))
	if err != nil || v != 13 {
		t.Fatalf("value = %d (%v), want 13", v, err)
	}
	m.Abort(tx(60))
}

func Test2PLPreAddRetriesUntilRelease(t *testing.T) {
	m := splitManager(50) // high threshold: the retry admits via the lock, not a split
	if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 11)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := admit(m, tx(2), ts(2), model.Add("x", 3))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("add not blocked behind writer (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 11, 1)})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(2), []model.WriteRecord{addRec("x", 3, 1)})
	v, _, err := admit(m, tx(3), ts(3), model.Read("x"))
	if err != nil || v != 14 {
		t.Fatalf("value = %d (%v), want 14", v, err)
	}
	m.Abort(tx(3))
}

func Test2PLPreAddTimesOutUnderHeldLock(t *testing.T) {
	m := NewTwoPL(newStore(), Options{SplitThreshold: 1000})
	if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg(), 50*time.Millisecond)
	defer cancel()
	_, _, err := m.Admit(ctx, tx(2), ts(2), model.Add("x", 1), true)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("held-lock add = %v, want CC abort", err)
	}
	m.Abort(tx(1))
	m.Abort(tx(2))
}

// Test2PLWaitingAddRefusedOnceFinished: an add that retries behind a held
// lock stops once its own transaction is aborted here (a release), instead
// of being admitted for a transaction that can never prepare.
func Test2PLWaitingAddRefusedOnceFinished(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Hour, SplitThreshold: 1000})
	if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := admit(m, tx(2), ts(2), model.Add("x", 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	m.Abort(tx(2))
	select {
	case err := <-done:
		if !errors.Is(err, ErrTxFinished) {
			t.Fatalf("waiting add after its abort = %v, want ErrTxFinished", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiting add kept retrying after its transaction was aborted")
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	if m.HoldsIntents(tx(2), []model.ItemID{"x"}) {
		t.Error("aborted add left an intent")
	}
}

// --- Finished-transaction fast fail (the never-block bug) ---

func Test2PLFinishedTxRefusedNotWouldBlock(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(1), model.Write("x", 1)); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})

	// Operations for the finished transaction must fail terminally, NOT
	// report ErrWouldBlock: a wave retries would-block operations with wait,
	// which burns a full wave budget and can never succeed.
	if _, _, err := m.Admit(bg(), tx(1), ts(1), model.Read("x"), false); !errors.Is(err, ErrTxFinished) {
		t.Errorf("no-wait read after commit = %v, want ErrTxFinished", err)
	}
	if _, _, err := m.Admit(bg(), tx(1), ts(1), model.Write("x", 2), false); !errors.Is(err, ErrTxFinished) {
		t.Errorf("no-wait write after commit = %v, want ErrTxFinished", err)
	}
	if _, _, err := m.Admit(bg(), tx(1), ts(1), model.Add("x", 2), false); !errors.Is(err, ErrTxFinished) {
		t.Errorf("no-wait add after commit = %v, want ErrTxFinished", err)
	}
	// A waiting admission refuses too, and the error is a terminal CC
	// abort so the serve path error-replies instead of retrying.
	if _, _, err := admit(m, tx(1), ts(1), model.Read("x")); !errors.Is(err, ErrTxFinished) {
		t.Errorf("waiting read after commit = %v, want ErrTxFinished", err)
	}
	if model.CauseOf(ErrTxFinished) != model.AbortCC {
		t.Errorf("ErrTxFinished cause = %v, want AbortCC", model.CauseOf(ErrTxFinished))
	}

	// Aborted transactions are tombstoned the same way.
	if _, _, err := admit(m, tx(2), ts(2), model.Write("y", 1)); err != nil {
		t.Fatal(err)
	}
	m.Abort(tx(2))
	if _, _, err := m.Admit(bg(), tx(2), ts(2), model.Write("y", 2), false); !errors.Is(err, ErrTxFinished) {
		t.Errorf("no-wait write after abort = %v, want ErrTxFinished", err)
	}
}

// --- TSO/MVTSO delta intents ---

func TestTSOAddIntentsMergeAndCommit(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := admit(m, tx(1), ts(5), model.Add("x", 3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := admit(m, tx(1), ts(5), model.Add("x", 4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx(1), []model.WriteRecord{addRec("x", 7, 1)}); err != nil {
		t.Fatal(err)
	}
	v, _, err := admit(m, tx(2), ts(10), model.Read("x"))
	if err != nil || v != 17 {
		t.Fatalf("read = %d (%v), want 17", v, err)
	}
	if m.Stats().Adds != 2 {
		t.Errorf("Adds = %d, want 2", m.Stats().Adds)
	}
}

func TestMVTSOAddChainsOnTail(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	// Install an absolute write, then a later delta: the new version's value
	// is the chain tail plus the delta.
	if _, _, err := admit(m, tx(1), ts(10), model.Write("x", 100)); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 100, 1)})
	if _, _, err := admit(m, tx(2), ts(20), model.Add("x", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx(2), []model.WriteRecord{addRec("x", 5, 2)}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := admit(m, tx(3), ts(30), model.Read("x")); err != nil || v != 105 {
		t.Fatalf("tail read = %d (%v), want 105", v, err)
	}
	// Historical read before the delta still sees the absolute value.
	if v, _, err := admit(m, tx(4), ts(15), model.Read("x")); err != nil || v != 100 {
		t.Fatalf("historical read = %d (%v), want 100", v, err)
	}
}

func TestConformanceReinstateConcurrentAdds(t *testing.T) {
	// Two in-doubt blind adds of one item (admitted lock-free together, and
	// prepared together) both reinstate without waiting for each other, and a
	// reader waits until both are resolved.
	for name, m := range managers(t) {
		start := time.Now()
		for i, delta := range []int64{4, 5} {
			if err := m.Reinstate(tx(uint64(i+1)), ts(uint64(i+1)), []model.WriteRecord{addRec("x", delta, 1)}); err != nil {
				t.Fatalf("%s: reinstate of add %d: %v", name, i+1, err)
			}
		}
		if waited := time.Since(start); waited > 100*time.Millisecond {
			t.Errorf("%s: reinstating two adds of x took %v", name, waited)
		}
		done := make(chan int64, 1)
		go func() {
			v, _, err := admit(m, tx(3), ts(3), model.Read("x"))
			if err != nil {
				v = -1
			}
			done <- v
		}()
		for i, delta := range []int64{4, 5} {
			select {
			case v := <-done:
				t.Fatalf("%s: read %d with %d adds still in doubt", name, v, 2-i)
			case <-time.After(20 * time.Millisecond):
			}
			m.Commit(tx(uint64(i+1)), []model.WriteRecord{addRec("x", delta, 1)})
		}
		if v := <-done; v != 19 {
			t.Errorf("%s: read after both adds resolved = %d, want 19", name, v)
		}
		m.Abort(tx(3))
	}
}

func TestConformanceReinstateAddProtects(t *testing.T) {
	// Recovery reinstates an in-doubt blind add; a conflicting reader must
	// not slip past it, and resolution reconciles the delta.
	for name, m := range managers(t) {
		if err := m.Reinstate(tx(1), ts(1), []model.WriteRecord{addRec("x", 4, 1)}); err != nil {
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
				t.Errorf("%s: read of in-doubt add returned %d", name, r.v)
			}
		case <-time.After(20 * time.Millisecond):
			m.Commit(tx(1), []model.WriteRecord{addRec("x", 4, 1)})
			r := <-done
			if r.err == nil && r.v != 14 {
				t.Errorf("%s: reader after resolution saw %d, want 14", name, r.v)
			}
		}
		m.Abort(tx(2))
		m.Abort(tx(1))
	}
}
