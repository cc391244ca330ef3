package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Roots ("op" for a timed
// operation, "replay.op" for a replayed one) have Parent 0; every span of
// one operation carries that operation's Op. Server phases reach the
// client only as durations, so their "server.<phase>" spans are laid from
// the op's start and flagged DurationOnly.
type span struct {
	ID           int    `json:"id"`
	Parent       int    `json:"parent"`
	Op           int    `json:"op"`
	Name         string `json:"name"`
	Start        int64  `json:"start_ns"`
	End          int64  `json:"end_ns"`
	DurationOnly bool   `json:"duration_only,omitempty"`
}

func (s span) ns() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends.
// Times are nanoseconds since the recorder was made.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// add stores s with a fresh ID and returns the ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// root opens an operation that began at start: it reserves an op number
// and stores the root span, whose end the caller sets with setEnd.
func (r *recorder) root(name string, start int64) (id, op int) {
	r.mu.Lock()
	r.ops++
	op = r.ops
	r.mu.Unlock()
	return r.add(span{Op: op, Name: name, Start: start, End: start}), op
}

func (r *recorder) setEnd(id int, end int64) {
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// timed runs f as a child span of parent.
func (r *recorder) timed(parent, op int, name string, f func()) {
	start := r.now()
	f()
	r.add(span{Parent: parent, Op: op, Name: name, Start: start, End: r.now()})
}

// durations returns the duration in nanoseconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.ns()))
		}
	}
	return out
}

// coverage is the share of the named roots' wall time that their child
// spans account for.
func (r *recorder) coverage(rootName string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	roots := map[int]bool{}
	var total, covered int64
	for _, s := range r.spans {
		if s.Name == rootName {
			roots[s.ID] = true
			total += s.ns()
		}
	}
	for _, s := range r.spans {
		if roots[s.Parent] {
			covered += s.ns()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// traceFile is the span file a traced run writes at exit. Self time of a
// span is its duration minus the durations of the spans naming it parent.
type traceFile struct {
	Meta   runMeta           `json:"meta"`
	Layers map[string]metric `json:"layers"`
	Spans  []span            `json:"spans"`
}

func (r *recorder) write(path string, meta runMeta, layers map[string]metric) error {
	r.mu.Lock()
	tf := traceFile{Meta: meta, Layers: layers, Spans: r.spans}
	buf, err := json.Marshal(tf)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}
