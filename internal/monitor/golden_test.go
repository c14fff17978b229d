package monitor_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/monitor"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenReport is a fixed three-site report with a distinct value in every
// scalar SiteStats field. Values derive from the site and the field name,
// not the field's position, so adding a field leaves every other value as
// it was.
func goldenReport(t *testing.T) monitor.Report {
	t.Helper()
	r := monitor.Report{
		Net:      monitor.NetStats{Sent: 4101, Delivered: 4099, Dropped: 2, Bytes: 918273},
		WindowNS: 250_000_000,
	}
	for i, id := range []model.SiteID{"S1", "S2", "S3"} {
		s := monitor.SiteStats{Site: id}
		v := reflect.ValueOf(&s).Elem()
		seen := make(map[uint64]string)
		for j := 0; j < v.NumField(); j++ {
			name := v.Type().Field(j).Name
			h := fnv.New32a()
			h.Write([]byte(string(id) + "." + name))
			n := uint64(h.Sum32()%999_983) + 1
			if strings.HasSuffix(name, "NS") {
				n *= 1000
			}
			switch f := v.Field(j); f.Kind() {
			case reflect.Uint64:
				f.SetUint(n)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(n))
			default:
				continue
			}
			if prev, dup := seen[n]; dup {
				t.Fatalf("%s: fields %s and %s share the value %d", id, prev, name, n)
			}
			seen[n] = name
		}
		s.AbortsByCause = map[string]uint64{"CCP": uint64(11 + i), "ACP": uint64(5 + 2*i)}
		for k := 1; k <= 6+i; k++ {
			s.Latency.Observe(int64(k) * 173_011 * int64(i+1))
		}
		s.Stages = map[string]monitor.Histogram{}
		for k, stage := range []string{"queue", "lock_wait", "wal_fsync"} {
			var h monitor.Histogram
			for m := 1; m <= 3+k+i; m++ {
				h.Observe(int64(m) * 41_017 * int64(k+1))
			}
			s.Stages[stage] = h
		}
		s.StoreShards = []monitor.ShardStat{
			{Items: 10 + i, Hits: uint64(300 + 7*i), Installs: 9},
			{Items: 14 + 2*i, Hits: uint64(250 + i), Installs: 4},
		}
		r.Sites = append(r.Sites, s)
	}
	return r
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file; diff the output of -update against git to see how:\n%s", name, got)
	}
}

// TestGoldenSurfaces pins /metrics, Render and Totals for one fixed report,
// byte for byte.
func TestGoldenSurfaces(t *testing.T) {
	r := goldenReport(t)
	var metrics bytes.Buffer
	monitor.WriteMetrics(&metrics, r)
	checkGolden(t, "metrics.golden", metrics.Bytes())
	checkGolden(t, "render.golden", []byte(r.Render()))
	totals, err := json.MarshalIndent(r.Totals(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "totals.golden.json", append(totals, '\n'))
}
