package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the benchmark's calls into the
// system's layers and writes them out once the run ends. Every job or report
// fetch gets one span ID; the spans of the layer calls made on its behalf
// carry that ID as their parent, so one job's spans can be collected across
// layers. A nil *tracer is the untraced run: every method is a no-op, so call
// sites need no branches.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Start and End are nanoseconds since the tracer
// started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID allocates a span ID; the untraced run gets 0.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores the span id (allocating one when id is 0) covering
// [start, end].
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since records a span from start to now under a fresh ID.
func (t *tracer) since(parent uint64, name string, start time.Time) {
	t.record(0, parent, name, start, time.Now())
}

// durations returns the length of every span with the given name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write saves the spans, with a header describing the run, as one JSON
// document.
func (t *tracer) write(path string, header any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{header, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
