package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by this package around
// the layer's public entry point. Times are nanoseconds since the tracer
// started; Parent 0 marks a root; spans of one end-to-end unit share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, 0 when t is nil.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Concurrent children may overlap;
// the covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name   string
	Count  int
	Total  time.Duration
	Self   time.Duration
	Parent string
}

// summarize groups spans by name, in order of first appearance.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	names := map[int]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name, Parent: names[s.Parent]})
		}
		out[i].Count++
		out[i].Total += time.Duration(s.End - s.Start)
		out[i].Self += time.Duration(self[s.ID])
	}
	return out
}

// writeTrace writes the spans to path as JSON, with each span's self time.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[s.ID]}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []row `json:"spans"`
	}{rows}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// rung is one row of a workload's ladder: a layer's cost per end-to-end
// unit, and the row above it that contains it.
type rung struct {
	name   string
	parent string
	us     float64
}

// printLadder prints the rows indented under their parents, each with
// its share of the parent.
func printLadder(w io.Writer, rows []rung) {
	fmt.Fprintln(w, "ladder (µs per unit, share of parent)")
	depth := map[string]int{}
	val := map[string]float64{}
	for _, r := range rows {
		d := 0
		if r.parent != "" {
			d = depth[r.parent] + 1
		}
		depth[r.name] = d
		val[r.name] = r.us
		share := ""
		if p, ok := val[r.parent]; ok && p > 0 {
			share = fmt.Sprintf("%6.1f%%", 100*r.us/p)
		}
		fmt.Fprintf(w, "  %*s%-*s %12.2f %s\n", 2*d, "", 44-2*d, r.name, r.us, share)
	}
}
