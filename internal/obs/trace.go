package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
)

// TraceHeader is the HTTP header carrying the trace ID across nodes.
// The edge (gateway, or the server when hit directly) mints an ID if the
// inbound request has none; every hop echoes it back on the response.
const TraceHeader = "X-Sched-Trace"

// Phase names for the spans recorded along the compile path. These are
// the vocabulary of the per-phase histograms and of TraceInfo.Spans; the
// glossary lives in docs/observability.md.
const (
	PhaseRoute        = "route"         // gateway: pick + reach a backend (overhead over backend total)
	PhaseQueueWait    = "queue_wait"    // server: admission → holding a compile slot at the gate
	PhaseCompile      = "compile"       // server: Jolt compile + JIT, or the memo lookup for a repeat source
	PhaseFingerprint  = "fingerprint"   // server: whole-program fingerprint (cache, singleflight and routing key)
	PhaseCacheLookup  = "cache_lookup"  // scheduler: block fingerprint + scheduled-block cache probe, or the lookup of a memoized source's stored pass
	PhaseDAGBuild     = "dag_build"     // scheduler: dependence DAG construction
	PhaseListSchedule = "list_schedule" // scheduler: list-scheduling loop proper
	PhaseEstimator    = "estimator"     // scheduler: cost-estimator passes (CostBefore / predictions)
	PhaseSim          = "sim"           // server: simulator run for /v1/execute
)

// Phases lists every span name in canonical display order.
var Phases = []string{
	PhaseRoute, PhaseQueueWait, PhaseCompile, PhaseFingerprint, PhaseCacheLookup,
	PhaseDAGBuild, PhaseListSchedule, PhaseEstimator, PhaseSim,
}

// Span is one timed phase within a traced request.
type Span struct {
	Phase string `json:"phase"`
	Ns    int64  `json:"ns"`
}

// TraceInfo is the wire form of a finished trace, embedded in compile
// responses as "trace". The invariant the tests pin: the sum of span
// durations never exceeds TotalNs (phases are non-overlapping slices of
// the request's wall time; untimed remainder is simply unattributed).
type TraceInfo struct {
	ID      string `json:"id"`
	TotalNs int64  `json:"total_ns"`
	Spans   []Span `json:"spans,omitempty"`
}

// SpanNs returns the duration of the named span, or 0 if absent.
func (t *TraceInfo) SpanNs(phase string) int64 {
	if t == nil {
		return 0
	}
	for _, s := range t.Spans {
		if s.Phase == phase {
			return s.Ns
		}
	}
	return 0
}

// Trace accumulates span timings for one in-flight request. Record is
// mutex-guarded: the pool hands the request body to a worker goroutine,
// and a hedged gateway attempt may race a straggler.
type Trace struct {
	id string

	mu    sync.Mutex
	spans []Span
}

// ValidTraceID reports whether id is acceptable on the wire: 1–64
// characters of [A-Za-z0-9_-]. Anything else (including empty) makes
// the edge mint a fresh ID instead of propagating garbage.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// NewTraceID mints a 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; fall
		// back to a fixed marker rather than panicking in the serving
		// path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// StartTrace begins a trace with the given inbound ID, minting a fresh
// one when the ID is empty or invalid.
func StartTrace(id string) *Trace {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	return &Trace{id: id}
}

// ID returns the trace's identifier.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Record adds a span with the given duration. Zero and negative
// durations are dropped — a phase that didn't run shouldn't clutter the
// breakdown, and clock weirdness must not break the sum≤total invariant.
func (t *Trace) Record(phase string, ns int64) {
	if t == nil || ns <= 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Phase: phase, Ns: ns})
	t.mu.Unlock()
}

// Finish seals the trace into its wire form with the measured total.
// Spans are kept in recording order.
func (t *Trace) Finish(totalNs int64) *TraceInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	if totalNs < 0 {
		totalNs = 0
	}
	return &TraceInfo{ID: t.id, TotalNs: totalNs, Spans: spans}
}

type traceKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace from ctx, or nil if none is attached.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
