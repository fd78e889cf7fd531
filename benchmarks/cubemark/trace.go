package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"cure/internal/obsv"
)

// span is one harness-recorded interval. Layer is the package the time
// belongs to ("harness" for the benchmark's own work). Parent is an
// index into the same recorder, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"` // Unix nanoseconds
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, at exit. A
// nil recorder records nothing, which is how untraced runs stay untraced.
type recorder struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder { return &recorder{workload: workload} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(parent int, layer, name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Workload: r.workload, Parent: parent, Start: time.Now().UnixNano()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// adopt grafts spans recorded elsewhere (a child process, or a registry
// snapshot) under parent, rebasing their parent indexes.
func (r *recorder) adopt(parent int, spans []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Workload = r.workload
		r.spans = append(r.spans, s)
	}
}

// layerOfRegistrySpan names the package a span of the library's own
// registry belongs to, from its path under the "build" root.
func layerOfRegistrySpan(path string) string {
	switch {
	case strings.Contains(path, "/finalize"):
		return "storage"
	case strings.Contains(path, "/pool.flush"):
		return "signature"
	case strings.Contains(path, "/partition.split"):
		return "partition"
	case strings.HasSuffix(path, "/load"):
		return "relation"
	default:
		return "core"
	}
}

// importRegistrySpans converts a registry's span trees into harness
// spans (roots get Parent -1; adopt re-parents them).
func importRegistrySpans(roots []obsv.SpanSnapshot) []span {
	var out []span
	var walk func(s obsv.SpanSnapshot, parent int, path string)
	walk = func(s obsv.SpanSnapshot, parent int, path string) {
		path += "/" + s.Name
		end := s.EndTime
		if s.Running {
			end = s.StartTime.Add(time.Duration(s.ElapsedSec * float64(time.Second)))
		}
		out = append(out, span{Name: strings.TrimPrefix(path, "/"), Layer: layerOfRegistrySpan(path), Parent: parent,
			Start: s.StartTime.UnixNano(), End: end.UnixNano()})
		id := len(out) - 1
		for _, c := range s.Children {
			walk(c, id, path)
		}
	}
	for _, s := range roots {
		walk(s, -1, "")
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children are clipped to the parent and overlapping
// children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// layerTable prints self time by layer for the spans under root and
// returns the share of root's wall time the rows add up to.
func layerTable(w io.Writer, spans []span, root int) float64 {
	self := selfTimes(spans)
	inRoot := make([]bool, len(spans))
	byLayer := map[string]int64{}
	count := map[string]int{}
	var total int64
	for i, s := range spans {
		inRoot[i] = i == root || (s.Parent >= 0 && inRoot[s.Parent])
		if inRoot[i] {
			byLayer[s.Layer] += self[i]
			count[s.Layer]++
			total += self[i]
		}
	}
	wall := spans[root].End - spans[root].Start
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "%-12s %10s %7s %8s\n", "layer", "self_s", "share", "spans")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %10.3f %6.1f%% %8d\n", l, float64(byLayer[l])/1e9, 100*float64(byLayer[l])/float64(wall), count[l])
	}
	fmt.Fprintf(w, "%-12s %10.3f %6.1f%%  (wall %.3f s)\n", "sum", float64(total)/1e9, 100*float64(total)/float64(wall), float64(wall)/1e9)
	return float64(total) / float64(wall)
}
