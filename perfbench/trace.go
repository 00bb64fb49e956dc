package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a package, or one phase
// record a package reported about a call (Synthetic). Spans of one operation
// share Op; Parent is the index of the span that caused this one, -1 for a
// root.
type span struct {
	Name      string `json:"name"`
	Op        int    `json:"op"`
	Parent    int    `json:"parent"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. It is safe for use from
// several goroutines; the lock is held only to append. A nil *tracer records
// nothing, so one code path serves traced and untraced runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: start})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].EndNS = end
	t.mu.Unlock()
}

// wrap runs f inside a span and returns the span's index.
func (t *tracer) wrap(name string, op, parent int, f func()) int {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
	return id
}

// synthetic records a duration a package measured itself (a jit telemetry
// record, a tiered promotion wall) as a child of parent, laid end to end
// after the previous synthetic child, so self time stays well defined.
func (t *tracer) synthetic(name string, op, parent int, start int64, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: start, EndNS: start + int64(d), Synthetic: true})
	return start + int64(d)
}

// start returns the start offset of span id.
func (t *tracer) start(id int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].StartNS
}

// totals sums span durations by name.
func (t *tracer) totals() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.dur()
	}
	return out
}

// selfTimes sums, by name, each span's duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.dur() - covered(s, kids[i])
	}
	return out
}

// covered returns how much of parent's interval the union of cs covers.
func covered(parent span, cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
	var total int64
	cur := parent.StartNS
	for _, c := range cs {
		lo, hi := max(c.StartNS, cur), min(c.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return time.Duration(total)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans and the run's environment as JSON at path.
func (t *tracer) write(path string, e env) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Env   env    `json:"env"`
		Spans []span `json:"spans"`
	}{e, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
