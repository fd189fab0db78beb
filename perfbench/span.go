package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded around the call from the
// benchmark's side. Start and End are offsets from the recorder's epoch;
// Parent is 0 for a root span.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     string        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the service workload's clients record from their own
// goroutines, so parents are passed explicitly rather than kept on a stack.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID. A nil recorder records nothing,
// so untraced code paths can share the instrumented helpers.
func (r *Recorder) Begin(op, name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// End closes the span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already measured span (the service's own timestamps).
func (r *Recorder) Add(op, name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may nest further or
// overlap one another (parallel calls); each instant of the parent counts
// once, and child time outside the parent's interval is ignored.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi).
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
		} else if v.b > cur.b {
			cur.b = v.b
		}
	}
	return total + cur.b - cur.a
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// TotalByName sums inclusive duration per span name.
func TotalByName(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}
