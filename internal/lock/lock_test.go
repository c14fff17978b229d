package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

func tx(seq uint64) model.TxID { return model.TxID{Site: "S", Seq: seq} }

func mustAcquire(t *testing.T, m *Manager, id model.TxID, item model.ItemID, mode Mode) {
	t.Helper()
	if err := m.Acquire(context.Background(), id, item, mode, true); err != nil {
		t.Fatalf("Acquire(%v, %v, %v): %v", id, item, mode, err)
	}
}

func TestSharedLocksCompatible(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Shared)
	mustAcquire(t, m, tx(2), "x", Shared)
	mustAcquire(t, m, tx(3), "x", Shared)
	if m.Holding(tx(2), "x") != Shared {
		t.Error("tx2 should hold S")
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Exclusive)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), tx(2), "x", Shared, true) }()
	select {
	case err := <-done:
		t.Fatalf("shared lock granted while X held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	m.ReleaseAll(tx(1))
	if err := <-done; err != nil {
		t.Fatalf("shared lock not granted after release: %v", err)
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Shared)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), tx(2), "x", Exclusive, true) }()
	select {
	case <-done:
		t.Fatal("X granted while S held by another tx")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(tx(1))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Exclusive)
	mustAcquire(t, m, tx(1), "x", Exclusive)
	mustAcquire(t, m, tx(1), "x", Shared) // weaker mode under X: no-op
	if m.Holding(tx(1), "x") != Exclusive {
		t.Error("X lock lost by weaker re-acquire")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Shared)
	mustAcquire(t, m, tx(1), "x", Exclusive)
	if m.Holding(tx(1), "x") != Exclusive {
		t.Error("upgrade failed")
	}
	if m.Stats().Upgrades != 1 {
		t.Errorf("Upgrades = %d", m.Stats().Upgrades)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Shared)
	mustAcquire(t, m, tx(2), "x", Shared)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), tx(1), "x", Exclusive, true) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another reader holds S")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(tx(2))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Holding(tx(1), "x") != Exclusive {
		t.Error("upgrade not applied after release")
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// Two readers both try to upgrade: a classic unresolvable deadlock.
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Shared)
	mustAcquire(t, m, tx(2), "x", Shared)

	first := make(chan error, 1)
	go func() { first <- m.Acquire(context.Background(), tx(1), "x", Exclusive, true) }()
	time.Sleep(20 * time.Millisecond) // let tx1 queue

	err := m.Acquire(context.Background(), tx(2), "x", Exclusive, true)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("second upgrade should deadlock-abort, got %v", err)
	}
	m.ReleaseAll(tx(2))
	if err := <-first; err != nil {
		t.Fatalf("first upgrade should be granted after victim releases: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Exclusive)
	mustAcquire(t, m, tx(2), "y", Exclusive)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), tx(1), "y", Exclusive, true) }()
	time.Sleep(20 * time.Millisecond) // tx1 now waits for tx2

	err := m.Acquire(context.Background(), tx(2), "x", Exclusive, true)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("cycle not detected: %v", err)
	}
	if m.Stats().Deadlocks != 1 {
		t.Errorf("Deadlocks = %d", m.Stats().Deadlocks)
	}
	m.ReleaseAll(tx(2))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "a", Exclusive)
	mustAcquire(t, m, tx(2), "b", Exclusive)
	mustAcquire(t, m, tx(3), "c", Exclusive)

	e1 := make(chan error, 1)
	e2 := make(chan error, 1)
	go func() { e1 <- m.Acquire(context.Background(), tx(1), "b", Exclusive, true) }()
	time.Sleep(10 * time.Millisecond)
	go func() { e2 <- m.Acquire(context.Background(), tx(2), "c", Exclusive, true) }()
	time.Sleep(10 * time.Millisecond)

	err := m.Acquire(context.Background(), tx(3), "a", Exclusive, true)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("3-cycle not detected: %v", err)
	}
	m.ReleaseAll(tx(3))
	if err := <-e2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(tx(2))
	if err := <-e1; err != nil {
		t.Fatal(err)
	}
}

// waitCtx bounds one waiting Acquire, as a caller's wait budget does.
func waitCtx(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestTimeout(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Exclusive)
	start := time.Now()
	err := m.Acquire(waitCtx(t, 30*time.Millisecond), tx(2), "x", Exclusive, true)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("want CC abort on timeout, got %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("timed out too early: %v", d)
	}
	if m.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d", m.Stats().Timeouts)
	}
	// The holder is unaffected.
	if m.Holding(tx(1), "x") != Exclusive {
		t.Error("holder lost its lock on waiter timeout")
	}
}

// TestNoWaitAcquire: without wait, a grantable request is granted and a
// conflicting one answers ErrWouldBlock leaving no trace — no waiter, no
// waits-for edge, no wait counted — so a later waiting request by another
// transaction is not queued behind it.
func TestNoWaitAcquire(t *testing.T) {
	m := New(Options{})
	if err := m.Acquire(context.Background(), tx(1), "x", Shared, false); err != nil {
		t.Fatalf("free item: %v", err)
	}
	if err := m.Acquire(context.Background(), tx(2), "x", Shared, false); err != nil {
		t.Fatalf("compatible shared: %v", err)
	}
	if err := m.Acquire(context.Background(), tx(3), "x", Exclusive, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("conflicting exclusive = %v, want ErrWouldBlock", err)
	}
	if err := m.Acquire(context.Background(), tx(1), "x", Exclusive, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("upgrade beside another reader = %v, want ErrWouldBlock", err)
	}
	if s := m.Stats(); s.Waits != 0 || s.Timeouts != 0 {
		t.Fatalf("no-wait refusals counted: %+v", s)
	}
	m.waitsMu.Lock()
	edges := len(m.waits)
	m.waitsMu.Unlock()
	if edges != 0 {
		t.Fatalf("no-wait refusals left %d waits-for entries", edges)
	}
	// Nothing queued: a fresh shared request still joins the readers.
	if err := m.Acquire(context.Background(), tx(4), "x", Shared, false); err != nil {
		t.Fatalf("shared after refusals: %v", err)
	}
	for i := uint64(1); i <= 4; i++ {
		m.ReleaseAll(tx(i))
	}
	if !m.Idle("x") {
		t.Fatal("x not idle after every holder released")
	}
}

func TestDeadlockDetectionDisabledFallsBackToTimeout(t *testing.T) {
	m := New(Options{DisableDeadlockDetection: true})
	mustAcquire(t, m, tx(1), "x", Exclusive)
	mustAcquire(t, m, tx(2), "y", Exclusive)

	done := make(chan error, 1)
	ctx1 := waitCtx(t, 30*time.Millisecond)
	go func() { done <- m.Acquire(ctx1, tx(1), "y", Exclusive, true) }()
	time.Sleep(10 * time.Millisecond)
	err := m.Acquire(waitCtx(t, 30*time.Millisecond), tx(2), "x", Exclusive, true)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("want timeout abort, got %v", err)
	}
	if m.Stats().Deadlocks != 0 {
		t.Error("deadlock detection ran while disabled")
	}
	m.ReleaseAll(tx(2))
	// tx1 either got y after tx2 released, or timed out itself first —
	// both resolve the deadlock; neither may hang.
	if err := <-done; err != nil && model.CauseOf(err) != model.AbortCC {
		t.Fatal(err)
	}
}

func TestFIFOFairnessWriterNotStarved(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Shared)

	writer := make(chan error, 1)
	go func() { writer <- m.Acquire(context.Background(), tx(2), "x", Exclusive, true) }()
	time.Sleep(20 * time.Millisecond)

	// A later shared request must queue behind the writer, not jump it.
	reader := make(chan error, 1)
	go func() { reader <- m.Acquire(context.Background(), tx(3), "x", Shared, true) }()
	select {
	case <-reader:
		t.Fatal("late reader jumped the queued writer")
	case <-time.After(20 * time.Millisecond):
	}

	m.ReleaseAll(tx(1))
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(tx(2))
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAllRemovesQueuedWaiter(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Exclusive)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), tx(2), "x", Exclusive, true) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(tx(2)) // tx2 aborts while waiting
	if err := <-done; model.CauseOf(err) != model.AbortCC {
		t.Fatalf("queued waiter should be aborted by ReleaseAll, got %v", err)
	}
	// tx1 still holds; a fresh tx can wait normally.
	m.ReleaseAll(tx(1))
	mustAcquire(t, m, tx(3), "x", Exclusive)
}

func TestContextCancellation(t *testing.T) {
	m := New(Options{})
	mustAcquire(t, m, tx(1), "x", Exclusive)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, tx(2), "x", Exclusive, true) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; model.CauseOf(err) != model.AbortCC {
		t.Fatalf("cancelled wait should CC-abort, got %v", err)
	}
}

// TestStressInvariant hammers the manager with random lock/unlock cycles and
// checks the core invariant after every grant: an exclusive holder is alone.
func TestStressInvariant(t *testing.T) {
	m := New(Options{})
	items := []model.ItemID{"a", "b", "c", "d"}
	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				id := model.TxID{Site: "S", Seq: uint64(g*1000 + i)}
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				n := 1 + rng.Intn(3)
				ok := true
				for j := 0; j < n && ok; j++ {
					item := items[rng.Intn(len(items))]
					mode := Shared
					if rng.Intn(2) == 0 {
						mode = Exclusive
					}
					if err := m.Acquire(ctx, id, item, mode, true); err != nil {
						ok = false
						break
					}
					if mode == Exclusive && !m.soleHolder(id, item) {
						violations.Add(1)
					}
				}
				cancel()
				m.ReleaseAll(id)
			}
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d exclusivity violations", v)
	}
	// Everything released: all new requests must succeed immediately.
	for _, item := range items {
		mustAcquire(t, m, tx(999999), item, Exclusive)
	}
}

// soleHolder checks the holder set under the item's shard lock (test helper).
func (m *Manager) soleHolder(id model.TxID, item model.ItemID) bool {
	sh := m.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	il := sh.items[item]
	if il == nil {
		return false
	}
	_, ok := il.holders[id]
	return ok && len(il.holders) == 1
}

func TestShardOption(t *testing.T) {
	if got := New(Options{Shards: 3}).ShardCount(); got != 4 {
		t.Errorf("ShardCount with Shards:3 = %d, want 4", got)
	}
	if got := New(Options{Shards: 1}).ShardCount(); got != 1 {
		t.Errorf("ShardCount with Shards:1 = %d, want 1", got)
	}
	if got := New(Options{}).ShardCount(); got < 1 {
		t.Errorf("default ShardCount = %d", got)
	}
}

// TestCrossShardDeadlockDetected builds a deadlock whose two items live in
// different lock-table shards — only the global waits-for graph can close
// the cycle; per-shard graphs never could.
func TestCrossShardDeadlockDetected(t *testing.T) {
	m := New(Options{Shards: 8})
	// Pick two items that provably hash to different shards.
	itemA := model.ItemID("a")
	var itemB model.ItemID
	for i := 0; i < 1000; i++ {
		cand := model.ItemID(fmt.Sprintf("b%d", i))
		if m.shardOf(cand) != m.shardOf(itemA) {
			itemB = cand
			break
		}
	}
	if itemB == "" {
		t.Fatal("could not find items in distinct shards")
	}

	mustAcquire(t, m, tx(1), itemA, Exclusive)
	mustAcquire(t, m, tx(2), itemB, Exclusive)

	blocked := make(chan error, 1)
	go func() { blocked <- m.Acquire(context.Background(), tx(1), itemB, Exclusive, true) }()
	// Wait until tx1 is queued on itemB (its waits-for edge published).
	for i := 0; ; i++ {
		if m.Stats().Waits > 0 {
			break
		}
		if i > 500 {
			t.Fatal("tx1 never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// tx2 → itemA closes the cross-shard cycle and must abort immediately.
	err := m.Acquire(context.Background(), tx(2), itemA, Exclusive, true)
	if err == nil {
		t.Fatal("cross-shard deadlock not detected")
	}
	if m.Stats().Deadlocks != 1 {
		t.Errorf("Deadlocks = %d, want 1", m.Stats().Deadlocks)
	}
	m.ReleaseAll(tx(2))
	if err := <-blocked; err != nil {
		t.Errorf("victim release should unblock tx1: %v", err)
	}
	m.ReleaseAll(tx(1))
}

// TestStripedLockStress hammers every stripe from many goroutines with
// multi-item transactions — run with -race. Items are acquired in global
// (sorted) order so the only aborts come from timeouts under load.
func TestStripedLockStress(t *testing.T) {
	const nItems, goroutines, iters = 48, 12, 150
	items := make([]model.ItemID, nItems)
	for i := range items {
		items[i] = model.ItemID(fmt.Sprintf("i%02d", i))
	}
	m := New(Options{Shards: 8})

	var granted, aborted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := model.TxID{Site: "S", Seq: uint64(g*100000 + i)}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				// 2–4 distinct items in index order (global lock order).
				lo := rng.Intn(nItems - 4)
				n := 2 + rng.Intn(3)
				ok := true
				for j := 0; j < n; j++ {
					mode := Shared
					if rng.Intn(3) == 0 {
						mode = Exclusive
					}
					if err := m.Acquire(ctx, id, items[lo+j], mode, true); err != nil {
						aborted.Add(1)
						ok = false
						break
					}
				}
				cancel()
				if ok {
					granted.Add(1)
				}
				m.ReleaseAll(id)
			}
		}(g)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no transaction ever completed")
	}
	// Quiesced: every item must be immediately lockable again.
	for _, item := range items {
		mustAcquire(t, m, tx(9999999), item, Exclusive)
	}
	m.ReleaseAll(tx(9999999))
	t.Logf("stress: %d completed, %d aborted, stats %+v", granted.Load(), aborted.Load(), m.Stats())
}
