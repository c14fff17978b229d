package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads drives every workload for ~300 ms through the whole path —
// set-up, measured window, traced window, trace file, correctness epilogue —
// and checks that each run reports exactly the metrics BENCHMARK.json names.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %s, the harness has %s", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			r, err := runOnce(runConfig{
				w: w, seed: 619, window: 300 * time.Millisecond, traced: traced,
				setups: 1, warmup: 20, tail: 100,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: %v", w.name, traced, r.violations)
			}
			if r.window.attempted() == 0 || r.window.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, r.window.attempted(), r.window.failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if r.budget.traces == 0 {
					t.Errorf("%s: the traced run sampled no transaction", w.name)
				}
				if _, err := os.Stat(r.traceFile); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
			if len(r.metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(r.metrics), len(want))
			}
			for j, m := range r.metrics {
				if m.name != want[j].Name || m.unit != want[j].Unit {
					t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json says %s [%s]", w.name, j, m.name, m.unit, want[j].Name, want[j].Unit)
				}
			}
		}
	}
}

// TestStreamsFollowSeed: the same seed gives identical per-client operation
// streams, another seed (and the other client) a different one.
func TestStreamsFollowSeed(t *testing.T) {
	stream := func(w workload, seed int64, client int) [][]model.Op {
		gen := w.generators(seed)[client]
		out := make([][]model.Op, 200)
		for i := range out {
			out[i] = gen.NextTx()
		}
		return out
	}
	for _, w := range workloads {
		if !reflect.DeepEqual(stream(w, 7, 0), stream(w, 7, 0)) || !reflect.DeepEqual(stream(w, 7, 1), stream(w, 7, 1)) {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(stream(w, 7, 0), stream(w, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if reflect.DeepEqual(stream(w, 7, 0), stream(w, 7, 1)) {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
	}
}

// TestSeamsKeepBehaviour: the probe wrappers keep every optional interface
// the site and the wire layer look for, and an untraced cluster has none of
// them anywhere near the measured path.
func TestSeamsKeepBehaviour(t *testing.T) {
	var log wal.Log = &timedLog{fullLog: wal.NewMemory(), p: newProbes()}
	if _, ok := log.(wal.Compactable); !ok {
		t.Error("timedLog lost wal.Compactable")
	}
	if _, ok := log.(wal.BatchStats); !ok {
		t.Error("timedLog lost wal.BatchStats")
	}
	if _, ok := log.(wal.Observable); !ok {
		t.Error("timedLog lost wal.Observable")
	}
	var net wire.Network = &countingNet{Net: tcpnet.New(nil), p: newProbes()}
	if _, ok := net.(wire.BatchNetwork); !ok {
		t.Error("countingNet lost wire.BatchNetwork")
	}
	if _, ok := net.(interface{ NetStats() tcpnet.Stats }); !ok {
		t.Error("countingNet lost the tcpnet stats probe")
	}
	if _, ok := net.(interface {
		RegisterTracer(model.SiteID, *trace.Tracer)
	}); !ok {
		t.Error("countingNet lost the tracer registration")
	}

	w, _ := findWorkload("hot.add")
	for _, traced := range []bool{false, true} {
		c, err := newCluster(w, traced, outDir)
		if err != nil {
			t.Fatal(err)
		}
		if (c.probes != nil) != traced {
			t.Errorf("traced=%v: probes = %v", traced, c.probes)
		}
		for _, cfg := range c.configs {
			if _, bare := cfg.Net.(*tcpnet.Net); bare == traced {
				t.Errorf("traced=%v: site %s attaches through %T", traced, cfg.ID, cfg.Net)
			}
		}
		for _, l := range c.logs {
			if _, wrapped := l.(*timedLog); wrapped {
				t.Errorf("traced=%v: a probe wrapper is kept as the site's real log", traced)
			}
		}
		c.close()
	}
}

// TestAPISurface parses the harness sources and fails on an import outside
// the narrow stable surface or on any use of an ablation knob, so that
// later changes can delete those knobs without touching these frozen files.
func TestAPISurface(t *testing.T) {
	allowed := map[string]bool{
		"config": true, "history": true, "model": true, "monitor": true, "nameserver": true,
		"site": true, "tcpnet": true, "trace": true, "wal": true, "wire": true, "wlg": true,
	}
	knobs := map[string]bool{
		"PipelineDisable": true, "LegacyFraming": true, "Codec": true, "NetCodec": true,
		"NoHotSplit": true, "NoGroupCommit": true, "DisableDeadlockDetection": true,
		"NoDeadlockDetection": true, "NewWithOptions": true, "CheckpointNoCOW": true,
		"CheckpointNoDirtyItems": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(path, "repro/internal/"); ok {
				if !allowed[pkg] {
					t.Errorf("%s imports %s, outside the benchmark's stable surface", name, path)
				}
			} else if strings.Contains(path, ".") || strings.HasPrefix(path, "repro") {
				t.Errorf("%s imports %s: only the standard library and the allowed packages", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (knobs[id.Name] || strings.HasPrefix(id.Name, "Try")) {
				t.Errorf("%s uses %s, an ablation knob", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// TestSelfTime checks the span tree on a hand-made trace: children nest
// under the shortest covering span of the right site, and self time is the
// span minus the union of its children.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tx := tracedTx{spans: []span{
		{Name: "client.execute", Site: "client", start: at(0), end: at(100), frag: -1, structural: true},
		{Name: "exec", Site: "S1", start: at(1), end: at(99), frag: 0, structural: true},
		{Name: "op", Site: "S1", start: at(10), end: at(60), frag: 0, structural: true},
		// Two remote fragments of the op, overlapping in time.
		{Name: "queue", Site: "S2", start: at(20), end: at(40), frag: 1},
		{Name: "spill", Site: "S3", start: at(30), end: at(55), frag: 2},
		{Name: "lock_wait", Site: "S3", start: at(35), end: at(50), frag: 2},
	}}
	tx.link()
	parents := map[string]string{"exec": "client.execute", "op": "exec", "queue": "op", "spill": "op", "lock_wait": "spill"}
	selfUS := map[string]float64{"client.execute": 2, "exec": 48, "op": 15, "queue": 20, "spill": 10, "lock_wait": 15}
	for _, s := range tx.spans {
		if want := parents[s.Name]; want != "" && tx.spans[s.Parent-1].Name != want {
			t.Errorf("%s hangs under %s, want %s", s.Name, tx.spans[s.Parent-1].Name, want)
		}
		if s.SelfUS != selfUS[s.Name] {
			t.Errorf("%s self time %v µs, want %v", s.Name, s.SelfUS, selfUS[s.Name])
		}
	}
	b := budgetOf([]tracedTx{tx})
	// Leaf spans cover 20..55 of the 100 µs: 65% is unexplained.
	if b.unexplained < 0.6499 || b.unexplained > 0.6501 {
		t.Errorf("unexplained share %v, want 0.65", b.unexplained)
	}
}
