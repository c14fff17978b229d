package site

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/nameserver"
	"repro/internal/schema"
	"repro/internal/tcpnet"
	"repro/internal/testutil"
)

// TestCCStatsSurfaced: Add carries every cc.Stats counter across a stack
// rebuild, and every counter has a CC<Name> row exported to /metrics, which
// lifetimeStats fills by that name.
func TestCCStatsSurfaced(t *testing.T) {
	var one, acc cc.Stats
	testutil.Fill(t, &one)
	acc.Add(one)
	acc.Add(one)
	v := reflect.ValueOf(acc)
	for i := range v.NumField() {
		name := v.Type().Field(i).Name
		if got := v.Field(i).Uint(); got != 14 {
			t.Errorf("Add carried %s = %d, want 14", name, got)
		}
		found := false
		for _, row := range monitor.Table {
			if row.Field == "CC"+name {
				found = true
				if row.Kind != monitor.KindCounter || row.Metric == "" {
					t.Errorf("row %s: want an exported counter, got %+v", row.Field, row)
				}
			}
		}
		if !found {
			t.Errorf("cc.Stats.%s has no CC%s row in monitor.Table", name, name)
		}
	}
}

// TestResetStatsWindowsEveryCounter runs traced write traffic over loopback
// TCP, resets one site's statistics, and checks that every counter row of
// monitor.Table reads 0 while every gauge keeps its value.
func TestResetStatsWindowsEveryCounter(t *testing.T) {
	net := tcpnet.New(nil)
	cat := schema.NewCatalog()
	ids := []model.SiteID{"A", "B", "C"}
	for _, id := range ids {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.ReplicateEverywhere("x", 10)
	cat.ReplicateEverywhere("y", 20)
	cat.Timeouts = schema.Timeouts{
		Op: 2 * time.Second, Vote: 2 * time.Second, Ack: time.Second,
		Lock: time.Second, OrphanResolve: 100 * time.Millisecond,
	}
	ns, err := nameserver.New(net, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	var sites []*Site
	for _, id := range ids {
		st, err := New(Config{
			ID: id, Net: net, Register: true,
			Trace: schema.TracePolicy{SampleRate: 1, Ring: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, st)
	}
	defer func() {
		for _, st := range sites {
			st.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 30; i++ {
		home := sites[i%len(sites)]
		if out := home.Execute(ctx, []model.Op{model.Read("x"), model.Write("y", int64(i))}); !out.Committed {
			t.Fatalf("tx %d did not commit: %+v", i, out)
		}
	}
	for _, st := range sites {
		st.WaitTails()
	}

	// Wait for the cluster to go quiet: two snapshots in a row that agree
	// on every row but the window.
	field := func(s monitor.SiteStats, row monitor.Row) reflect.Value {
		return reflect.ValueOf(s).FieldByName(row.Field)
	}
	same := func(x, y monitor.SiteStats) bool {
		for _, row := range monitor.Table {
			if row.Field != "" && row.Field != "WindowNS" && !reflect.DeepEqual(field(x, row).Interface(), field(y, row).Interface()) {
				return false
			}
		}
		return true
	}
	a := sites[0]
	before := a.Stats()
	for deadline := time.Now().Add(5 * time.Second); ; {
		time.Sleep(50 * time.Millisecond)
		next := a.Stats()
		if same(before, next) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("site statistics never settled")
		}
		before = next
	}
	for _, name := range []string{"Committed", "WALFlushes", "CCReads", "CCPreWrites", "PipeSubmitted", "NetSentEnvelopes", "TraceSampled", "TraceEvicted"} {
		if reflect.ValueOf(before).FieldByName(name).Uint() == 0 {
			t.Errorf("%s = 0 before the reset; the traffic should have counted it", name)
		}
	}

	a.ResetStats()
	after := a.Stats()
	for _, row := range monitor.Table {
		got, was := field(after, row), field(before, row)
		switch {
		case !got.CanUint() && !got.CanInt(), row.Field == "WindowNS":
			// Composite rows are checked below; the window restarts.
		case row.Kind == monitor.KindCounter && !got.IsZero():
			t.Errorf("counter %s = %v after ResetStats, want 0", row.Field, got)
		case row.Kind == monitor.KindGauge && !got.Equal(was):
			t.Errorf("gauge %s = %v after ResetStats, want %v as before", row.Field, got, was)
		}
	}
	if after.WindowNS >= before.WindowNS {
		t.Errorf("window = %v after ResetStats, want a fresh one (was %v)", after.WindowNS, before.WindowNS)
	}
	if len(after.AbortsByCause) != 0 || after.Latency.Count != 0 || len(after.Stages) != 0 {
		t.Errorf("reset left aborts %v, %d latency samples, %d stages", after.AbortsByCause, after.Latency.Count, len(after.Stages))
	}
}
