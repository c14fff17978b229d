package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// startTraced configures the instance with sampling on (every transaction)
// and the given fragment-ring bound, then runs a small mixed workload.
func startTraced(t *testing.T, ts *httptest.Server, ring, transactions int) {
	t.Helper()
	body := fmt.Sprintf(`{
		"name": "traced",
		"sites": ["S1","S2","S3"],
		"items": {"x": 10, "y": 20},
		"protocols": {"RCP":"qc","CCP":"2pl","ACP":"2pc"},
		"network": {"base_latency_us": 0},
		"timeouts_ms": {"op":1000,"vote":1000,"ack":500,"lock":300,"orphan_resolve":50},
		"trace_sample_rate": 1,
		"trace_ring": %d,
		"workload": {"transactions": %d, "mpl": 2, "ops_per_tx": 2, "read_fraction": 0.3, "retries": 3}
	}`, ring, transactions)
	if resp, out := post(t, ts.URL+"/NSRunnerlet", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("NSRunnerlet: %d %v", resp.StatusCode, out)
	}
	if resp, out := post(t, ts.URL+"/WLGlet/run", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("WLGlet/run: %d %v", resp.StatusCode, out)
	} else if out["committed"].(float64) == 0 {
		t.Fatal("nothing committed")
	}
}

// sampleLine matches one Prometheus text-format sample (0.0.4): a metric
// name, an optional label set, and a float value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+$`)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// No instance yet: the scrape surface answers 409, not garbage.
	if resp, _ := get(t, ts.URL+"/metrics"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("metrics before configure = %d, want 409", resp.StatusCode)
	}

	startTraced(t, ts, 1024, 20)
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want text exposition 0.0.4", ct)
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}

	for _, family := range []string{
		"rainbow_tx_began_total", "rainbow_tx_committed_total",
		"rainbow_wal_flushes_total", "rainbow_pipeline_submitted_total",
		"rainbow_trace_sampled_total", "rainbow_trace_fragments_total",
		"rainbow_tx_latency_seconds_bucket", "rainbow_stage_latency_seconds_bucket",
		"rainbow_net_messages_total", "rainbow_net_bytes_total",
		"rainbow_net_sent_bytes_total", "rainbow_net_sent_envelopes_total",
		"rainbow_voted_legs_total", "rainbow_home_forces_total", "rainbow_vote_lost_reruns_total",
		"rainbow_home_first_waves_total", "rainbow_home_first_reruns_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("metrics missing family %s", family)
		}
	}

	// Histogram buckets are cumulative: within one label set the counts must
	// be nondecreasing and the +Inf bucket must equal _count.
	counts := make(map[string][]float64) // label set -> bucket counts in order
	infs := make(map[string]float64)
	finals := make(map[string]float64)
	bucketRe := regexp.MustCompile(`^rainbow_tx_latency_seconds_bucket\{(.*),le="([^"]+)"\} ([0-9.eE+-]+)$`)
	countRe := regexp.MustCompile(`^rainbow_tx_latency_seconds_count\{(.*)\} ([0-9.eE+-]+)$`)
	for _, line := range strings.Split(string(body), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[3], 64)
			if m[2] == "+Inf" {
				infs[m[1]] = v
			} else {
				counts[m[1]] = append(counts[m[1]], v)
			}
		} else if m := countRe.FindStringSubmatch(line); m != nil {
			finals[m[1]], _ = strconv.ParseFloat(m[2], 64)
		}
	}
	if len(infs) == 0 {
		t.Fatal("no tx latency histogram buckets rendered")
	}
	for labels, seq := range counts {
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Errorf("%s: bucket counts not cumulative: %v", labels, seq)
			}
		}
		if len(seq) > 0 && infs[labels] < seq[len(seq)-1] {
			t.Errorf("%s: +Inf bucket %v below last bucket %v", labels, infs[labels], seq[len(seq)-1])
		}
		if infs[labels] != finals[labels] {
			t.Errorf("%s: +Inf bucket %v != _count %v", labels, infs[labels], finals[labels])
		}
	}

	// Sampling at rate 1 means the trace counters moved.
	if !regexp.MustCompile(`rainbow_trace_sampled_total\{site="S[123]"\} [1-9]`).Match(body) {
		t.Errorf("no site reports sampled traces:\n%s", body)
	}
}

func TestTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	startTraced(t, ts, 1024, 20)

	resp, body := get(t, ts.URL+"/site/S1/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: %d", resp.StatusCode)
	}
	var out struct {
		Site       string  `json:"site"`
		SampleRate float64 `json:"sample_rate"`
		Ring       int     `json:"ring"`
		Count      int     `json:"count"`
		Traces     []struct {
			ID    uint64 `json:"id"`
			Spans []struct {
				Stage string `json:"stage"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("traces body: %v\n%s", err, body)
	}
	if out.Site != "S1" || out.SampleRate != 1 || out.Ring != 1024 {
		t.Errorf("traces header = site=%s rate=%v ring=%d", out.Site, out.SampleRate, out.Ring)
	}
	if out.Count == 0 || len(out.Traces) != out.Count {
		t.Fatalf("count = %d, traces = %d", out.Count, len(out.Traces))
	}
	spans := 0
	for _, tr := range out.Traces {
		if tr.ID == 0 {
			t.Error("retained fragment with zero trace ID")
		}
		spans += len(tr.Spans)
	}
	if spans == 0 {
		t.Error("no fragment carries any spans")
	}

	if resp, _ := get(t, ts.URL+"/site/ZZ/traces"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown site = %d, want 404", resp.StatusCode)
	}
}

func TestTracesQueryFilters(t *testing.T) {
	_, ts := newTestServer(t)
	startTraced(t, ts, 1024, 20)

	type traceOut struct {
		Count  int `json:"count"`
		Traces []struct {
			Tx struct {
				Site string `json:"Site"`
				Seq  uint64 `json:"Seq"`
			} `json:"tx"`
		} `json:"traces"`
	}
	fetch := func(query string) traceOut {
		t.Helper()
		resp, body := get(t, ts.URL+"/site/S1/traces"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traces%s: %d", query, resp.StatusCode)
		}
		var out traceOut
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("traces%s body: %v", query, err)
		}
		return out
	}

	all := fetch("")
	if all.Count == 0 {
		t.Fatal("no fragments to filter")
	}

	// tx: filtering by one retained transaction returns only its fragments,
	// and at least one.
	want := fmt.Sprintf("%s:%d", all.Traces[0].Tx.Site, all.Traces[0].Tx.Seq)
	byTx := fetch("?tx=" + want)
	if byTx.Count == 0 || byTx.Count > all.Count {
		t.Fatalf("tx filter kept %d of %d fragments", byTx.Count, all.Count)
	}
	for _, tr := range byTx.Traces {
		if got := fmt.Sprintf("%s:%d", tr.Tx.Site, tr.Tx.Seq); got != want {
			t.Errorf("tx filter leaked fragment for %s (want %s)", got, want)
		}
	}
	if nohit := fetch("?tx=ZZ:999999"); nohit.Count != 0 {
		t.Errorf("unknown tx matched %d fragments", nohit.Count)
	}

	// min_ms: zero keeps everything, an absurd threshold keeps nothing.
	if out := fetch("?min_ms=0"); out.Count != all.Count {
		t.Errorf("min_ms=0 kept %d of %d", out.Count, all.Count)
	}
	if out := fetch("?min_ms=3600000"); out.Count != 0 {
		t.Errorf("min_ms=1h kept %d fragments", out.Count)
	}

	// limit: truncates to the newest N; larger-than-count is a no-op.
	if out := fetch("?limit=1"); out.Count != 1 {
		t.Errorf("limit=1 returned %d fragments", out.Count)
	}
	if out := fetch("?limit=1000000"); out.Count != all.Count {
		t.Errorf("limit beyond count returned %d of %d", out.Count, all.Count)
	}

	// Malformed parameters are a 400, not a silent full dump.
	for _, q := range []string{"?min_ms=abc", "?min_ms=-1", "?limit=x", "?limit=-2"} {
		if resp, _ := get(t, ts.URL+"/site/S1/traces"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("traces%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestTracesUnsampledStaysEmpty(t *testing.T) {
	_, ts := newTestServer(t)
	start(t, ts) // default config: sampling off
	if resp, out := post(t, ts.URL+"/WLGlet/run", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("WLGlet/run: %d %v", resp.StatusCode, out)
	}
	_, body := get(t, ts.URL+"/site/S1/traces")
	var out struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 {
		t.Errorf("unsampled instance retained %d fragments", out.Count)
	}
}

func TestTracesRingEviction(t *testing.T) {
	_, ts := newTestServer(t)
	startTraced(t, ts, 8, 40)
	evicted := false
	for _, id := range []string{"S1", "S2", "S3"} {
		_, body := get(t, ts.URL+"/site/"+id+"/traces")
		var out struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count > 8 {
			t.Errorf("site %s retains %d fragments, ring bound is 8", id, out.Count)
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if regexp.MustCompile(`rainbow_trace_evicted_total\{site="S[123]"\} [1-9]`).Match(metrics) {
		evicted = true
	}
	if !evicted {
		t.Error("40 sampled transactions on an 8-slot ring evicted nothing")
	}
}

func TestProfilingEndpointsGated(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if resp, _ := get(t, ts.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}

	s2 := NewServer()
	s2.EnableProfiling()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	if resp, body := get(t, ts2.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d", resp.StatusCode)
	} else if !bytes.Contains(body, []byte("profiles")) {
		t.Errorf("pprof index body: %s", body)
	}
	if resp, body := get(t, ts2.URL+"/debug/vars"); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("memstats")) {
		t.Errorf("expvar = %d %s", resp.StatusCode, body[:min(len(body), 80)])
	}
}
