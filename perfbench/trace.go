package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// its own call site. Start and End are nanoseconds since the tracer's
// epoch; Parent is the index of the enclosing span, or -1; Req groups the
// spans of one request.
type Span struct {
	Name       string
	Start, End int64
	Parent     int
	Req        int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now returns the tracer clock in nanoseconds.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its index, for End and for children's
// Parent. On a nil tracer it returns -1.
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := t.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// End closes span id; ids below zero are ignored.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a finished span with explicit bounds and returns its index.
func (t *Tracer) Add(name string, start, end int64, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// Spans returns the recorded spans. Call it only after every recording
// goroutine has finished.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// WriteFile writes the spans as tab-separated lines:
// index, name, start_ns, end_ns, parent, req.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range t.Spans() {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children's intervals cover.
// Overlapping children are counted once, and child time outside the
// parent's interval is ignored.
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, spans, children[i])
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of the
// given spans' intervals.
func covered(lo, hi int64, spans []Span, ids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfByName returns, per span name, the self times in microseconds.
func selfByName(spans []Span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e3)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
