package monitor

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// WriteMetrics renders the report in Prometheus text exposition format
// (version 0.0.4): each exported row of Table is one family, in table
// order.
func WriteMetrics(w io.Writer, r Report) {
	for _, row := range Table {
		if row.Metric == "" {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", row.Metric, row.Help, row.Metric, row.Kind)
		if row.write != nil {
			row.write(w, row.Metric, r)
			continue
		}
		for i := range r.Sites {
			s := &r.Sites[i]
			v := reflect.ValueOf(s).Elem().Field(row.index)
			if row.Kind == KindCounter {
				fmt.Fprintf(w, "%s{site=%q} %d\n", row.Metric, string(s.Site), v.Uint())
				continue
			}
			var x float64
			if v.CanInt() {
				x = float64(v.Int())
			} else {
				x = float64(v.Uint())
			}
			if row.Scale != 0 {
				x /= row.Scale
			}
			fmt.Fprintf(w, "%s{site=%q} %g\n", row.Metric, string(s.Site), x)
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricName sanitizes a stage/cause label fragment into a metric-safe form.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, s)
}

func writeAbortsByCause(w io.Writer, name string, r Report) {
	for _, s := range r.Sites {
		for _, k := range sortedKeys(s.AbortsByCause) {
			fmt.Fprintf(w, "%s{site=%q,cause=%q} %d\n", name, string(s.Site), metricName(k), s.AbortsByCause[k])
		}
	}
}

func writeStoreShards(w io.Writer, name string, r Report) {
	for _, s := range r.Sites {
		fmt.Fprintf(w, "%s{site=%q} %g\n", name, string(s.Site), float64(len(s.StoreShards)))
	}
}

func writeLatency(w io.Writer, name string, r Report) {
	for _, s := range r.Sites {
		writeHistogram(w, name, fmt.Sprintf("site=%q", string(s.Site)), s.Latency)
	}
}

func writeStages(w io.Writer, name string, r Report) {
	for _, s := range r.Sites {
		for _, stage := range sortedKeys(s.Stages) {
			writeHistogram(w, name, fmt.Sprintf("site=%q,stage=%q", string(s.Site), metricName(stage)), s.Stages[stage])
		}
	}
}

func writeNetMessages(w io.Writer, name string, r Report) {
	fmt.Fprintf(w, "%s{kind=\"sent\"} %d\n", name, r.Net.Sent)
	fmt.Fprintf(w, "%s{kind=\"delivered\"} %d\n", name, r.Net.Delivered)
	fmt.Fprintf(w, "%s{kind=\"dropped\"} %d\n", name, r.Net.Dropped)
}

func writeNetBytes(w io.Writer, name string, r Report) {
	fmt.Fprintf(w, "%s %d\n", name, r.Net.Bytes)
}

// writeHistogram renders one Histogram as a Prometheus histogram family
// member with the given label set (no trailing comma), using the
// log2-bucket upper edges in seconds.
func writeHistogram(w io.Writer, name, labels string, h Histogram) {
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		cum += h.Buckets[b]
		// Skip runs of empty leading/intermediate buckets only when nothing
		// has accumulated yet — cumulative counts must stay monotone.
		if h.Buckets[b] == 0 && cum == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, float64(BucketUpperNS(b))/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.SumNS)/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
}
