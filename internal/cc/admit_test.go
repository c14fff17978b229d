package cc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// admitOps are the three copy operations a wave admits, on item.
func admitOps(item model.ItemID) []model.Op {
	return []model.Op{model.Read(item), model.Write(item, 7), model.Add(item, 3)}
}

// errText renders an admission error for comparison ("" for none).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAdmitWaitMatchesNoWait: for every manager, operation and
// precondition, admitting with wait gives the same value, version, error and
// counters as admitting without — except where no-wait answers
// ErrWouldBlock: there the wait ends, when its 20 ms ctx does, in a CC
// timeout abort that counts one timeout and leaves no intent. Every manager
// is built with a one-hour LockTimeout, so a wait that ends at 20 ms shows
// that no manager bounds a wait by a timer of its own.
func TestAdmitWaitMatchesNoWait(t *testing.T) {
	held := func(at uint64) func(*testing.T, Manager) {
		return func(t *testing.T, m Manager) {
			if _, _, err := admit(m, tx(2), ts(at), model.Write("x", 50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := []struct {
		name  string
		only  []string // the managers the precondition exists under; nil for all
		item  model.ItemID
		setup func(*testing.T, Manager)
	}{
		{name: "free", item: "x"},
		{name: "foreign-smaller-ts", item: "x", setup: held(5)},
		{name: "foreign-larger-ts", item: "x", setup: held(20)},
		{name: "own-intent", item: "x", setup: func(t *testing.T, m Manager) {
			if _, _, err := admit(m, tx(1), ts(10), model.Write("x", 77)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "finished", only: []string{"2pl"}, item: "x", setup: func(t *testing.T, m Manager) {
			if _, _, err := admit(m, tx(1), ts(10), model.Write("y", 1)); err != nil {
				t.Fatal(err)
			}
			if err := m.Commit(tx(1), []model.WriteRecord{rec("y", 1, 1)}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "split", only: []string{"2pl"}, item: "x", setup: func(t *testing.T, m Manager) {
			heat(t, m.(*TwoPL), "x", 2)
			// The next add splits x; its admission stays open.
			if _, _, err := m.Admit(bg(), tx(2), ts(2), model.Add("x", 5), false); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "unknown-item", item: "ghost"},
		{name: "ts-rejected", only: []string{"tso", "mvtso"}, item: "x", setup: func(t *testing.T, m Manager) {
			// Committed writes at ts 101..140 advance TSO's wts past the
			// operation's ts 10 and prune it out of MVTSO's version chain.
			for i := uint64(1); i <= maxVersionChain+8; i++ {
				if _, _, err := admit(m, tx(100+i), ts(100+i), model.Write("x", int64(i))); err != nil {
					t.Fatal(err)
				}
				if err := m.Commit(tx(100+i), []model.WriteRecord{rec("x", int64(i), model.Version(i))}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, name := range Names() {
		for _, row := range rows {
			if row.only != nil && !slices.Contains(row.only, name) {
				continue
			}
			for _, op := range admitOps(row.item) {
				t.Run(fmt.Sprintf("%s/%s/%v", name, row.name, op.Kind), func(t *testing.T) {
					build := func() Manager {
						m, err := New(name, newStore(), Options{LockTimeout: time.Hour, SplitThreshold: 2})
						if err != nil {
							t.Fatal(err)
						}
						if row.setup != nil {
							row.setup(t, m)
						}
						return m
					}
					nw := build()
					v0, ver0, err0 := nw.Admit(bg(), tx(1), ts(10), op, false)

					w := build()
					before := w.Stats()
					ctx, cancel := context.WithTimeout(bg(), 20*time.Millisecond)
					start := time.Now()
					v1, ver1, err1 := w.Admit(ctx, tx(1), ts(10), op, true)
					took := time.Since(start)
					cancel()

					if errors.Is(err0, ErrWouldBlock) {
						if model.CauseOf(err1) != model.AbortCC {
							t.Fatalf("no-wait would block, wait = (%d, v%d, %v), want a CC timeout abort", v1, ver1, err1)
						}
						if took < 20*time.Millisecond || took > time.Second {
							t.Errorf("wait ended after %v, want when its 20ms ctx ends", took)
						}
						if got := w.Stats().Timeouts - before.Timeouts; got != 1 {
							t.Errorf("wait raised Timeouts by %d, want 1", got)
						}
						if w.HoldsIntents(tx(1), []model.ItemID{op.Item}) {
							t.Error("timed-out wait left an intent")
						}
						return
					}
					if v0 != v1 || ver0 != ver1 || errText(err0) != errText(err1) {
						t.Fatalf("no-wait = (%d, v%d, %v), wait = (%d, v%d, %v)", v0, ver0, err0, v1, ver1, err1)
					}
					if s0, s1 := nw.Stats(), w.Stats(); s0 != s1 {
						t.Errorf("stats differ: no-wait %+v, wait %+v", s0, s1)
					}
				})
			}
		}
	}
}

// admitRun admits n uncontended operations of kind k, one fresh
// transaction each, at increasing timestamps over a fixed set of items, and
// aborts each transaction after its operation. ctx stands for a wave's wait
// budget.
func admitRun(ctx context.Context, m Manager, items []model.ItemID, k model.OpKind, wait bool, from, n uint64) {
	for i := from; i < from+n; i++ {
		op := model.Op{Kind: k, Item: items[i%uint64(len(items))], Value: 1}
		if _, _, err := m.Admit(ctx, tx(i), ts(i), op, wait); err != nil {
			panic(err)
		}
		m.Abort(tx(i))
	}
}

// admitBench builds a manager over a store of n items.
func admitBench(name string, n int) (Manager, []model.ItemID) {
	init := make(map[model.ItemID]int64, n)
	items := make([]model.ItemID, n)
	for i := range items {
		items[i] = model.ItemID(fmt.Sprintf("i%04d", i))
		init[items[i]] = int64(i)
	}
	st := storage.New()
	st.Init(init)
	m, err := New(name, st, Options{})
	if err != nil {
		panic(err)
	}
	return m, items
}

// BenchmarkAdmit measures one uncontended admission and its abort, per
// manager × operation × {nowait, wait}. Nothing waits, so the two modes run
// the same code: allocs/op, the figure CI gates, must be equal between them.
func BenchmarkAdmit(b *testing.B) {
	for _, name := range Names() {
		for _, k := range []model.OpKind{model.OpRead, model.OpWrite, model.OpAdd} {
			for _, wait := range []bool{false, true} {
				mode := "nowait"
				if wait {
					mode = "wait"
				}
				b.Run(fmt.Sprintf("%s/%v/%s", name, k, mode), func(b *testing.B) {
					m, items := admitBench(name, 1024)
					ctx, cancel := context.WithTimeout(bg(), time.Hour)
					defer cancel()
					b.ReportAllocs()
					b.ResetTimer()
					admitRun(ctx, m, items, k, wait, 1, uint64(b.N))
				})
			}
		}
	}
}

// TestAdmitWaitAllocatesNoMore: an uncontended admission allocates the same
// with wait as without, for every manager and operation — a wait arms its
// timer only once it must wait, and then in the caller.
func TestAdmitWaitAllocatesNoMore(t *testing.T) {
	ctx, cancel := context.WithTimeout(bg(), time.Hour)
	defer cancel()
	for _, name := range Names() {
		for _, k := range []model.OpKind{model.OpRead, model.OpWrite, model.OpAdd} {
			var allocs [2]float64
			for i, wait := range []bool{false, true} {
				m, items := admitBench(name, 64)
				admitRun(ctx, m, items, k, wait, 1, 1000) // warm the item and tombstone maps
				next := uint64(1001)
				allocs[i] = testing.AllocsPerRun(200, func() {
					admitRun(ctx, m, items, k, wait, next, 1)
					next++
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s %v: %.0f allocs without wait, %.0f with", name, k, allocs[0], allocs[1])
			}
		}
	}
}
