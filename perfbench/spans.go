package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request (one sim repetition, one Client.Run, one Client.Sweep) share a
// request id; parent links a span to the one that caused it.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Request string         `json:"request"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay only the nil checks.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	// cost accumulates the time spent inside the tracer itself, the direct
	// measure of tracing overhead on the fleet workload.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id; end closes it.
func (t *tracer) start(request, name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: now.Sub(t.epoch).Nanoseconds()})
	t.cost += time.Since(now)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNS = now.Sub(t.epoch).Nanoseconds()
	s.Attrs = attrs
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// add records an already-finished span (a sweep cell known only by its
// completion time and elapsed duration).
func (t *tracer) add(request, name string, parent int64, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Request: request, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(), Attrs: attrs})
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// spanStat is one row of the per-name summary: calls, total time, and self
// time (duration minus the part of it that child spans cover).
type spanStat struct {
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Calls++
		d := s.EndNS - s.StartNS
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-covered(s, children[s.ID])) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered is how much of parent's interval the union of its children
// covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write dumps the spans, their summary and extra run details as one JSON
// document.
func (t *tracer) write(path string, extra map[string]any) error {
	doc := map[string]any{"summary": t.summary()}
	for k, v := range extra {
		doc[k] = v
	}
	t.mu.Lock()
	doc["spans"] = t.spans
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
