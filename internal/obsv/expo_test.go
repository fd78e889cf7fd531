package obsv

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"partition.bytes_read":  "cure_partition_bytes_read",
		"query.node.latency_us": "cure_query_node_latency_us",
		"weird-name.1":          "cure_weird_name_1",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePromRoundTrip takes a snapshot to text and pins the text byte
// for byte: families sorted by name, histograms as five series, span
// paths summed when they repeat. Two renders of one snapshot must match,
// so map iteration order never leaks into the output.
func TestWritePromRoundTrip(t *testing.T) {
	snap := &Snapshot{
		Counters: map[string]int64{"partition.bytes_read": 1234, "core.tt_pruned": 9},
		Gauges:   map[string]int64{"pool.occupancy": 42},
		Histograms: []HistogramSnapshot{
			{Name: "query.node.latency_us", Count: 3, Sum: 215, P50: 15, P90: 255, P99: 255},
		},
		Spans: []SpanSnapshot{{Name: "build", ElapsedSec: 1.5, Children: []SpanSnapshot{
			{Name: "load", ElapsedSec: 0.25, RowsIn: 100, BytesRead: 4096},
			{Name: "part", ElapsedSec: 0.5, RowsIn: 10},
			{Name: "part", ElapsedSec: 0.25, RowsIn: 20},
		}}},
	}
	const want = `# TYPE cure_core_tt_pruned counter
cure_core_tt_pruned 9
# TYPE cure_partition_bytes_read counter
cure_partition_bytes_read 1234
# TYPE cure_pool_occupancy gauge
cure_pool_occupancy 42
# TYPE cure_query_node_latency_us_count counter
cure_query_node_latency_us_count 3
# TYPE cure_query_node_latency_us_sum counter
cure_query_node_latency_us_sum 215
# TYPE cure_query_node_latency_us_p50 gauge
cure_query_node_latency_us_p50 15
# TYPE cure_query_node_latency_us_p90 gauge
cure_query_node_latency_us_p90 255
# TYPE cure_query_node_latency_us_p99 gauge
cure_query_node_latency_us_p99 255
# TYPE cure_span_elapsed_seconds gauge
cure_span_elapsed_seconds{path="build"} 1.5
cure_span_elapsed_seconds{path="build/load"} 0.25
cure_span_elapsed_seconds{path="build/part"} 0.75
# TYPE cure_span_rows_total counter
cure_span_rows_total{path="build/load",direction="in"} 100
cure_span_rows_total{path="build/part",direction="in"} 30
# TYPE cure_span_bytes_total counter
cure_span_bytes_total{path="build/load",direction="read"} 4096
`
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := WriteProm(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("render %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestPromLabelEscapeRoundTrip renders span paths holding the three
// characters the exposition escapes (backslash, newline, double quote)
// and the delimiters a label reader must not split on, and reads each
// path label back: the series stays on one line and unquotes to the
// original bytes.
func TestPromLabelEscapeRoundTrip(t *testing.T) {
	values := []string{
		"plain",
		`back\slash`,
		`trailing\`,
		"new\nline",
		`quo"te`,
		"comma,inside",
		"brace{open",
		"brace}close",
		`\n`, // literal backslash-n, must not turn into a newline
		"mix\\\"ed,\nall{of}it",
	}
	const prefix = "cure_span_elapsed_seconds{path="
	for _, v := range values {
		snap := &Snapshot{Spans: []SpanSnapshot{{Name: v, ElapsedSec: 0.5}}}
		var buf bytes.Buffer
		if err := WriteProm(&buf, snap); err != nil {
			t.Fatalf("%q: WriteProm: %v", v, err)
		}
		var found bool
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			found = true
			end := strings.LastIndex(line, "} ")
			if end < len(prefix) || line[end:] != "} 0.5" {
				t.Fatalf("%q: malformed series %q", v, line)
			}
			got, err := strconv.Unquote(line[len(prefix):end])
			if err != nil {
				t.Fatalf("%q: path label %q: %v", v, line[len(prefix):end], err)
			}
			if got != v {
				t.Errorf("path label round-trip: got %q, want %q (wire %q)", got, v, line)
			}
		}
		if !found {
			t.Fatalf("%q: no span elapsed series in:\n%s", v, buf.String())
		}
	}
}

func TestWritePromEmptyAndNil(t *testing.T) {
	var r *Registry
	for _, snap := range []*Snapshot{nil, r.Snapshot()} {
		var buf bytes.Buffer
		if err := WriteProm(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 {
			t.Fatalf("empty snapshot rendered %q", buf.String())
		}
	}
}
