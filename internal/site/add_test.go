package site

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/rcp"
)

func TestExecuteAddReconciles(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	out := c.sites["A"].Execute(context.Background(), []model.Op{model.Add("x", 5)})
	if !out.Committed {
		t.Fatalf("add outcome = %+v", out)
	}
	for _, id := range c.ids {
		out := c.sites[id].Execute(context.Background(), []model.Op{model.Read("x")})
		if !out.Committed || out.Reads["x"] != 15 {
			t.Errorf("site %s: read = %+v, want x=15", id, out)
		}
	}
}

func TestConcurrentAddsExactSum(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	const perSite = 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	sum := int64(0)
	for _, id := range c.ids {
		wg.Add(1)
		go func(id model.SiteID) {
			defer wg.Done()
			for i := 0; i < perSite; i++ {
				d := int64(i + 1)
				out := c.sites[id].Execute(context.Background(), []model.Op{model.Add("x", d)})
				if out.Committed {
					mu.Lock()
					sum += d
					mu.Unlock()
				}
			}
		}(id)
	}
	wg.Wait()
	if sum == 0 {
		t.Fatal("no adds committed")
	}
	for _, id := range c.ids {
		out := c.sites[id].Execute(context.Background(), []model.Op{model.Read("x")})
		if !out.Committed {
			t.Fatalf("site %s: verify read aborted: %+v", id, out)
		}
		if got := out.Reads["x"]; got != 10+sum {
			t.Errorf("site %s: x = %d, want %d (10 + committed deltas %d)", id, got, 10+sum, sum)
		}
	}
}

func TestMixedAddWriteHistorySerializable(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	committed := make(map[model.TxID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				home := c.sites[c.ids[(w+i)%len(c.ids)]]
				var ops []model.Op
				switch i % 3 {
				case 0:
					ops = []model.Op{model.Add("x", 1), model.Write("y", int64(w*100+i))}
				case 1:
					ops = []model.Op{model.Read("y"), model.Write("z", int64(w*100+i))}
				default:
					ops = []model.Op{model.Add("x", 2), model.Read("z")}
				}
				out := home.Execute(context.Background(), ops)
				if out.Committed {
					mu.Lock()
					committed[out.Tx] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(committed) == 0 {
		t.Fatal("nothing committed")
	}
	var recs []*history.Recorder
	for _, id := range c.ids {
		recs = append(recs, c.sites[id].HistoryRecorder())
	}
	if err := history.CheckSerializable(history.Merge(recs...), committed); err != nil {
		t.Error(err)
	}
}

func TestTxnAddMixingRejected(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	s := c.sites["A"]

	// Read then Add of the same item.
	txn, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read("x"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Add("x", 1); model.CauseOf(err) != model.AbortClient {
		t.Errorf("Add after Read = %v, want client abort", err)
	}
	txn.Abort()

	// Add then Read / Write of the same item.
	txn, err = s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Add("y", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read("y"); model.CauseOf(err) != model.AbortClient {
		t.Errorf("Read after Add = %v, want client abort", err)
	}
	txn.Abort()

	txn, err = s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Add("y", 1); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("y", 9); model.CauseOf(err) != model.AbortClient {
		t.Errorf("Write after Add = %v, want client abort", err)
	}
	txn.Abort()

	// Different items mix freely.
	txn, err = s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read("x"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Add("y", 3); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("z", 7); err != nil {
		t.Fatal(err)
	}
	if out := txn.Commit(); !out.Committed {
		t.Fatalf("mixed-item txn aborted: %+v", out)
	}
}

func TestNoHotSplitAblationBehavesLikeWrites(t *testing.T) {
	p := defaultProtocols()
	p.NoHotSplit = true
	c := newCluster(t, 2, p, items())
	for i := 0; i < 5; i++ {
		out := c.sites["A"].Execute(context.Background(), []model.Op{model.Add("x", 2)})
		if !out.Committed {
			t.Fatalf("add %d aborted under ablation: %+v", i, out)
		}
	}
	out := c.sites["B"].Execute(context.Background(), []model.Op{model.Read("x")})
	if !out.Committed || out.Reads["x"] != 20 {
		t.Fatalf("read = %+v, want x=20", out)
	}
	st := c.sites["A"].Stats()
	if st.CCSplits != 0 || st.CCSplitAdds != 0 {
		t.Errorf("ablation split stats: %+v", st)
	}
}

// TestClassifyWrappedContextErrors covers the abort-cause taxonomy fix:
// transports wrap context errors, and classify must use errors.Is, not ==.
func TestClassifyWrappedContextErrors(t *testing.T) {
	cases := []struct {
		err  error
		want model.AbortCause
	}{
		{context.DeadlineExceeded, model.AbortRCP},
		{context.Canceled, model.AbortRCP},
		{fmt.Errorf("rpc to B: %w", context.DeadlineExceeded), model.AbortRCP},
		{fmt.Errorf("attempt: %w", fmt.Errorf("dial: %w", context.Canceled)), model.AbortRCP},
		{fmt.Errorf("plain failure"), model.AbortClient},
		{model.Abortf(model.AbortCC, "lock timeout"), model.AbortCC},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestStragglerOpForFinishedTxRefusedFast covers the blocking-retry fix: a copy
// operation arriving for a transaction this site already finished must be
// refused with a terminal error immediately, not collapsed into would-block
// and retried with wait to burn a full lock timeout.
func TestStragglerOpForFinishedTxRefusedFast(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	out := a.Execute(context.Background(), []model.Op{model.Write("x", 1)})
	if !out.Committed {
		t.Fatalf("setup tx aborted: %+v", out)
	}
	c.waitTails() // B finishes the transaction when the decision reaches it

	start := time.Now()
	rep, err := a.CopyBatch(context.Background(), "B", rcp.NewSession(out.Tx, model.Timestamp{Time: 99, Site: "A"}), []model.Op{model.Write("x", 9)}, rcp.Leg{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("straggler pre-write got no answer: %v", err)
	}
	if err = rep.Results[0].Err; err == nil {
		t.Fatal("straggler pre-write for a finished transaction succeeded")
	}
	if model.CauseOf(err) != model.AbortCC {
		t.Errorf("straggler refusal cause = %v (%v), want CC", model.CauseOf(err), err)
	}
	// The cluster's lock timeout is 500ms; a waiting retry would burn all
	// of it before failing.
	if elapsed > 300*time.Millisecond {
		t.Errorf("straggler refusal took %v — it was retried through the blocking path", elapsed)
	}
}
