package monitor

import (
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// TestTableComplete: every exported SiteStats field but Site sits in
// exactly one row of Table, and every row is well formed — a scalar row
// names an integer field (a counter a uint64 one), an exported row has
// help and a family of its own, and each Collector counter backs one
// counter row.
func TestTableComplete(t *testing.T) {
	typ := reflect.TypeOf(SiteStats{})
	rows := make(map[string]int)
	metrics := make(map[string]bool)
	counts := make(map[Count]int)
	for _, row := range Table {
		if row.Metric != "" {
			if row.Help == "" {
				t.Errorf("row %q: exported as %s with no help", row.Field, row.Metric)
			}
			if metrics[row.Metric] {
				t.Errorf("family %s is written by two rows", row.Metric)
			}
			metrics[row.Metric] = true
		}
		if row.count != noCount {
			counts[row.count]++
			if row.Kind != KindCounter {
				t.Errorf("row %q: a Collector counter backs a %s row", row.Field, row.Kind)
			}
		}
		if row.Field == "" {
			if row.write == nil {
				t.Errorf("row %s names no field and has no writer", row.Metric)
			}
			continue
		}
		rows[row.Field]++
		f, ok := typ.FieldByName(row.Field)
		if !ok {
			t.Errorf("row %q names no SiteStats field", row.Field)
			continue
		}
		if row.write != nil {
			continue
		}
		switch k := f.Type.Kind(); {
		case row.Kind == KindCounter && k != reflect.Uint64:
			t.Errorf("counter row %q is a %s, want uint64", row.Field, f.Type)
		case k != reflect.Uint64 && k != reflect.Int && k != reflect.Int64:
			t.Errorf("scalar row %q is a %s", row.Field, f.Type)
		}
	}
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if name != "Site" && rows[name] != 1 {
			t.Errorf("SiteStats.%s sits in %d rows of Table, want 1", name, rows[name])
		}
	}
	for k := noCount + 1; k < numCounts; k++ {
		if counts[k] != 1 {
			t.Errorf("Collector counter %d backs %d rows, want 1", k, counts[k])
		}
	}
}

// TestCollectorCountsReachTheirFields: each Collector counter lands in its
// row's field, and Reset zeroes them all.
func TestCollectorCountsReachTheirFields(t *testing.T) {
	c := NewCollector("S1")
	for k := noCount + 1; k < numCounts; k++ {
		c.Add(k, 100+uint64(k))
	}
	check := func(s SiteStats, want func(Count) uint64) {
		t.Helper()
		v := reflect.ValueOf(s)
		for _, row := range Table {
			if row.count != noCount {
				if got := v.FieldByName(row.Field).Uint(); got != want(row.count) {
					t.Errorf("%s = %d, want %d", row.Field, got, want(row.count))
				}
			}
		}
	}
	check(c.Snapshot(0), func(k Count) uint64 { return 100 + uint64(k) })
	c.Reset()
	check(c.Snapshot(0), func(Count) uint64 { return 0 })
}

// TestSubWindowsCounters: Sub measures counter rows from the base,
// saturating at 0, and leaves gauges and composite fields alone.
func TestSubWindowsCounters(t *testing.T) {
	var cur, low, high SiteStats
	testutil.Fill(t, &cur) // every number 7
	lowV, highV := reflect.ValueOf(&low).Elem(), reflect.ValueOf(&high).Elem()
	for _, row := range Table {
		if row.write == nil && row.Kind == KindCounter {
			lowV.FieldByName(row.Field).SetUint(5)
			highV.FieldByName(row.Field).SetUint(9)
		}
	}
	for _, tc := range []struct {
		base SiteStats
		want uint64
	}{{low, 2}, {high, 0}} {
		got := reflect.ValueOf(cur.Sub(tc.base))
		for _, row := range Table {
			if row.Field == "" {
				continue
			}
			f, was := got.FieldByName(row.Field), reflect.ValueOf(cur).FieldByName(row.Field)
			switch {
			case row.write == nil && row.Kind == KindCounter:
				if f.Uint() != tc.want {
					t.Errorf("counter %s = %d, want %d", row.Field, f.Uint(), tc.want)
				}
			case !reflect.DeepEqual(f.Interface(), was.Interface()):
				t.Errorf("%s changed under Sub: %v, want %v", row.Field, f, was)
			}
		}
	}
}
