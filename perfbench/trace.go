package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one request or one ingest tick share Req (the root span's ID).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// URI is the request URI of router and shard spans.
	URI   string `json:"uri,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced pass. A nil *tracer is the
// untraced pass: every method is a no-op and wrapping returns the
// handler unchanged, so untraced requests pay nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// live gates HTTP spans to the timed phase.
	live  atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a span under a pre-allocated id.
func (t *tracer) add(id, parent int64, name, uri string, start, end time.Time) {
	if t == nil {
		return
	}
	req := id
	if parent != 0 {
		req = parent
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, URI: uri,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span records a non-request span and returns its id.
func (t *tracer) span(parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.add(id, parent, name, "", start, end)
	return id
}

// wrap records a span named name around every request h serves while
// the tracer is live.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.live.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(t.newID(), 0, name, r.URL.RequestURI(), start, time.Now())
	})
}

// link makes each shard span the child of the router span it served:
// the router forwards the request URI unchanged and no two concurrent
// routed requests share one, so that router span is the one with the
// same URI whose interval contains the shard span.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	routers := make(map[string][]int)
	for i, s := range t.spans {
		if s.Name == "router" {
			routers[s.URI] = append(routers[s.URI], i)
		}
	}
	for i, s := range t.spans {
		if s.Name != "shard" {
			continue
		}
		for _, j := range routers[s.URI] {
			if r := t.spans[j]; r.Start <= s.Start && s.End <= r.End {
				t.spans[i].Parent, t.spans[i].Req = r.ID, r.ID
				break
			}
		}
	}
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children indexes spans by parent id.
func (t *tracer) children() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval its
// children cover.
func selfTime(s span, kids []span) time.Duration {
	covered := int64(0)
	cursor := s.Start
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, k := range sorted {
		lo, hi := max(k.Start, cursor), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
