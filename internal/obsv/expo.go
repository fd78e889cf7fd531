package obsv

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) rendered from a
// registry snapshot, so a scraper pointed at /metrics sees the same
// instruments -metrics-out dumps as JSON.
//
// Name mapping: the dotted instrument names become valid Prometheus
// metric names by prefixing "cure_" and replacing every character
// outside [a-zA-Z0-9_] with '_' ("partition.bytes_read" →
// "cure_partition_bytes_read"). Histograms export five series each:
// <name>_count, <name>_sum, <name>_p50, <name>_p90, <name>_p99 (the
// power-of-two bucket layout makes native Prometheus histograms
// misleading, so pre-computed quantiles are exported instead). Span
// subtrees flatten into three families labeled by slash-joined path:
// cure_span_elapsed_seconds, cure_span_rows_total (direction="in"/"out"),
// and cure_span_bytes_total (direction="read"/"written"); repeated paths
// (one "part" child per partition) sum. Output ordering is deterministic:
// families and series are sorted by name, then by label value.

// PromName maps a dotted instrument name to its Prometheus exposition
// name.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("cure_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format: backslash,
// newline, and double quote become \\, \n, and \".
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// promLabel renders one name="value" pair with exposition-format
// escaping. (Not %q: Go quoting escapes the escapes promEscape already
// applied, which double-encodes backslashes and newlines.)
func promLabel(name, value string) string {
	return name + `="` + promEscape(value) + `"`
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format. The output is deterministic for a given snapshot.
func WriteProm(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	if s == nil {
		return bw.Flush()
	}

	writeFamily := func(name, typ string, series []promSeries) {
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		for _, sr := range series {
			bw.WriteString(name)
			bw.WriteString(sr.labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(sr.value, 'g', -1, 64))
			bw.WriteByte('\n')
		}
	}
	single := func(name, typ string, v float64) {
		writeFamily(name, typ, []promSeries{{value: v}})
	}

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		single(PromName(name), "counter", float64(s.Counters[name]))
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		single(PromName(name), "gauge", float64(s.Gauges[name]))
	}

	// Histograms arrive sorted by name from Snapshot; keep that order.
	for _, h := range s.Histograms {
		base := PromName(h.Name)
		single(base+"_count", "counter", float64(h.Count))
		single(base+"_sum", "counter", float64(h.Sum))
		single(base+"_p50", "gauge", float64(h.P50))
		single(base+"_p90", "gauge", float64(h.P90))
		single(base+"_p99", "gauge", float64(h.P99))
	}

	if len(s.Spans) > 0 {
		elapsed := map[string]float64{}
		rows := map[string]float64{}  // path|direction
		bytes := map[string]float64{} // path|direction
		var walk func(prefix string, ss SpanSnapshot)
		walk = func(prefix string, ss SpanSnapshot) {
			path := ss.Name
			if prefix != "" {
				path = prefix + "/" + ss.Name
			}
			elapsed[path] += ss.ElapsedSec
			rows[path+"|in"] += float64(ss.RowsIn)
			rows[path+"|out"] += float64(ss.RowsOut)
			bytes[path+"|read"] += float64(ss.BytesRead)
			bytes[path+"|written"] += float64(ss.BytesWritten)
			for _, c := range ss.Children {
				walk(path, c)
			}
		}
		for _, ss := range s.Spans {
			walk("", ss)
		}
		series := make([]promSeries, 0, len(elapsed))
		for path, v := range elapsed {
			series = append(series, promSeries{
				labels: "{" + promLabel("path", path) + "}",
				value:  v,
			})
		}
		writeFamily("cure_span_elapsed_seconds", "gauge", series)
		directional := func(name string, m map[string]float64) {
			series = series[:0]
			for key, v := range m {
				if v == 0 {
					continue
				}
				path, dir, _ := strings.Cut(key, "|")
				series = append(series, promSeries{
					labels: "{" + promLabel("path", path) + "," + promLabel("direction", dir) + "}",
					value:  v,
				})
			}
			if len(series) > 0 {
				writeFamily(name, "counter", series)
			}
		}
		directional("cure_span_rows_total", rows)
		directional("cure_span_bytes_total", bytes)
	}
	return bw.Flush()
}

type promSeries struct {
	labels string
	value  float64
}
