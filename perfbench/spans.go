package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer: host time, kept
// in memory and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records nested spans on one goroutine. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
	open   []int // indexes into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// startPass gives the spans that follow a fresh pass id.
func (t *tracer) startPass() {
	if t != nil {
		t.pass++
	}
}

// begin opens a span under the innermost open one and returns the
// function that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Pass: t.pass, Name: name,
		Start: time.Since(t.origin).Nanoseconds(),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.origin).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children of one parent may
// overlap (nothing here forbids it), so their union is what is taken out.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanRow is one span name's self time, summed over the traced passes.
type spanRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
}

// selfByName folds self times by span name, heaviest first.
func selfByName(spans []span) []spanRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []spanRow
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, spanRow{Name: s.Name})
		}
		rows[i].Count++
		rows[i].SelfMS += float64(self[s.ID]) / 1e6
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// writeSpanReport prints the self-time table and writes every span plus
// the table to path as JSON.
func writeSpanReport(w io.Writer, path, workload string, spans []span) error {
	rows := selfByName(spans)
	fmt.Fprintf(w, "span self time (host), %s:\n", workload)
	fmt.Fprintf(w, "  %-44s %6s %12s\n", "span", "count", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-44s %6d %12.3f\n", r.Name, r.Count, r.SelfMS)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Self     []spanRow `json:"self"`
		Spans    []span    `json:"spans"`
	}{workload, rows, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
