package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run stays free of tracing cost.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished interval and returns its ID (0 on a nil recorder).
func (r *recorder) add(name, req string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// begin opens a root span whose end is filled in by the returned function.
func (r *recorder) begin(name string) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = r.add(name, "", 0, start, start)
	return id, func() {
		r.mu.Lock()
		r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
		r.mu.Unlock()
	}
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how many nanoseconds of parent the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, cur int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write saves the spans and the run's environment as JSON.
func (r *recorder) write(path string, env map[string]any) error {
	b, err := json.Marshal(map[string]any{"env": env, "spans": r.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// printSelfTimes prints the self time of every span name, largest first.
func (r *recorder) printSelfTimes() {
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	for _, n := range names {
		fmt.Printf("span self time  %-28s %10.3f ms\n", n, float64(st[n])/1e6)
	}
}
