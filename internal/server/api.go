package server

import (
	"schedfilter/internal/obs"
	"schedfilter/internal/online"
)

// The compile service's JSON wire types. Every compiler endpoint accepts
// the same input shape: Jolt source (or the name of a bundled benchmark
// workload), plus an optional policy selector. Errors come back as
// ErrorResponse with a non-2xx status.

// Traced embeds the request's trace in a response: the trace ID (also
// echoed as the X-Sched-Trace header) plus the per-phase span timings
// recorded along the compile path. The endpoint wrapper fills it in
// just before encoding; span durations never sum past TotalNs.
type Traced struct {
	Trace *obs.TraceInfo `json:"trace,omitempty"`
}

func (t *Traced) setTrace(info *obs.TraceInfo) { t.Trace = info }

// traceCarrier is how the endpoint wrapper recognizes responses that
// embed Traced.
type traceCarrier interface{ setTrace(*obs.TraceInfo) }

// ProgramInput names the code a request operates on — inline Jolt source
// or one of the bundled benchmark workloads — and the machine target it
// is compiled for.
type ProgramInput struct {
	// Source is a complete Jolt program.
	Source string `json:"source,omitempty"`
	// Workload is the name of a bundled benchmark (e.g. "compress");
	// mutually exclusive with Source.
	Workload string `json:"workload,omitempty"`
	// Target names the machine target (registry name, e.g. "wide4") to
	// schedule and execute for; empty selects the server's default.
	// Unknown names are rejected with 400. Each target is served by its
	// own immutable model and its own scheduled-block cache.
	Target string `json:"target,omitempty"`
	// Policy selects the scheduling policy in the spec mini-language
	// (always|ls, never|ns, size:N, cost:N, portfolio:spec+spec+...,
	// or "default"/empty for the server's configured/online policy).
	// Inline FilterSpec.Model wins over it.
	Policy string `json:"policy,omitempty"`
}

// FilterSpec carries a request's inline model.
type FilterSpec struct {
	// Model is inline model text (policy.FormatInduced format); it
	// overrides ProgramInput.Policy when set.
	Model string `json:"model,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// CompileRequest is the input of POST /v1/compile.
type CompileRequest struct {
	ProgramInput
	// Listing requests the compiled machine code as text.
	Listing bool `json:"listing,omitempty"`
}

// compileResponse reports a compilation.
type compileResponse struct {
	Traced
	Fns       int    `json:"fns"`
	Blocks    int    `json:"blocks"`
	Instrs    int    `json:"instrs"`
	CompileNs int64  `json:"compile_ns"`
	Listing   string `json:"listing,omitempty"`
}

// ScheduleRequest is the input of POST /v1/schedule: compile, then run
// the filter-driven scheduling pass through the scheduled-block cache.
type ScheduleRequest struct {
	ProgramInput
	FilterSpec
	// NoCache bypasses the scheduled-block cache (every approved block
	// runs the list scheduler).
	NoCache bool `json:"no_cache,omitempty"`
}

// ScheduleResponse reports a scheduling pass.
type ScheduleResponse struct {
	Traced
	// Policy and PolicyID are the serving policy's display name and
	// stable content identity (the cache/singleflight/routing key
	// component).
	Policy   string `json:"policy"`
	PolicyID string `json:"policy_id"`
	// FilterVersion is the online registry version that served the
	// request (0 when the server runs a static filter, or when the
	// request pinned an explicit filter spec).
	FilterVersion int `json:"filter_version,omitempty"`
	// Target is the machine target the pass scheduled for.
	Target       string `json:"target"`
	Blocks       int    `json:"blocks"`
	Scheduled    int    `json:"scheduled"`
	NotScheduled int    `json:"not_scheduled"`
	Changed      int    `json:"changed"`
	// CacheHits and CacheMisses split Scheduled: replayed from the
	// content-addressed cache vs actually list-scheduled. A request that
	// replays its memoized source's stored pass under the same target
	// and policy reports every scheduled block a hit and no miss.
	CacheHits   int   `json:"cache_hits"`
	CacheMisses int   `json:"cache_misses"`
	CostBefore  int64 `json:"cost_before"`
	CostAfter   int64 `json:"cost_after"`
	CompileNs   int64 `json:"compile_ns"`
	// SchedNs is the scheduling pass's wall time, feature extraction and
	// rules included; for a replay of a stored pass it is the lookup of
	// the stored pass.
	SchedNs int64 `json:"sched_ns"`
	// ProgramKey is the hex content fingerprint of the request's program
	// (model + filter + code) — the scheduled-block cache and
	// singleflight identity.
	ProgramKey string `json:"program_key"`
	// Coalesced reports that this request shared a concurrent identical
	// request's scheduling pass instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
}

// PredictRequest is the input of POST /v1/predict: run only the filter
// (features + rules), no scheduling.
type PredictRequest struct {
	ProgramInput
	FilterSpec
	// Detail requests per-block decisions; without it only the
	// aggregates are returned.
	Detail bool `json:"detail,omitempty"`
}

// blockDecision is one block's prediction.
type blockDecision struct {
	Fn       string `json:"fn"`
	Block    int    `json:"block"`
	BBLen    int    `json:"bb_len"`
	Schedule bool   `json:"schedule"`
	// Confidence is the policy's confidence in the decision, in [0,1].
	Confidence float64 `json:"confidence"`
}

// predictResponse reports the filter's decisions.
type predictResponse struct {
	Traced
	Policy        string          `json:"policy"`
	PolicyID      string          `json:"policy_id"`
	FilterVersion int             `json:"filter_version,omitempty"`
	Blocks        int             `json:"blocks"`
	WouldSchedule int             `json:"would_schedule"`
	Decisions     []blockDecision `json:"decisions,omitempty"`
}

// ExecuteRequest is the input of POST /v1/execute: compile, schedule
// under the filter (cached), then run the program on the cycle-timed
// simulator.
type ExecuteRequest struct {
	ProgramInput
	FilterSpec
	// Untimed skips the cycle pipeline (functional run only).
	Untimed bool `json:"untimed,omitempty"`
}

// ExecuteResponse reports a simulated run.
type ExecuteResponse struct {
	Traced
	Policy        string `json:"policy"`
	PolicyID      string `json:"policy_id"`
	FilterVersion int    `json:"filter_version,omitempty"`
	// Target is the machine target the run was scheduled and timed for.
	Target    string   `json:"target"`
	Ret       int64    `json:"ret"`
	Cycles    int64    `json:"cycles,omitempty"`
	DynInstrs int64    `json:"dyn_instrs"`
	Output    []string `json:"output,omitempty"`
	// Scheduling-pass accounting for the run's compile, as in
	// ScheduleResponse: a replay of a stored pass reports every
	// scheduled block a cache hit, and SchedNs is its lookup.
	Scheduled   int   `json:"scheduled"`
	CacheHits   int   `json:"cache_hits"`
	CacheMisses int   `json:"cache_misses"`
	CompileNs   int64 `json:"compile_ns"`
	SchedNs     int64 `json:"sched_ns"`
	SimNs       int64 `json:"sim_ns"`
}

// HealthResponse is the body of GET /healthz. A healthy node answers
// 200 with Status "ok"; a node that has begun shutting down answers 503
// with Status "draining" (and Draining set) so routing layers stop
// sending it traffic before the listener closes.
type HealthResponse struct {
	Status string `json:"status"`
	// Node is the instance's cluster identity (Config.Node; omitted for
	// unnamed single-node deployments).
	Node string `json:"node,omitempty"`
	// Policy and PolicyID identify the default target's serving policy
	// (display name + content identity).
	Policy   string `json:"policy"`
	PolicyID string `json:"policy_id"`
	// Model and Target describe the default machine target; Targets
	// lists every servable target name.
	Model   string   `json:"model"`
	Target  string   `json:"target"`
	Targets []string `json:"targets"`
	// Online reports whether online learning is enabled; FilterVersion
	// is then the default target's serving filter version, and
	// ActiveFilters every managed target's — the per-node convergence
	// identity the cluster gateway compares across members.
	Online        bool                `json:"online,omitempty"`
	FilterVersion int                 `json:"filter_version,omitempty"`
	ActiveFilters []online.ActiveInfo `json:"active_filters,omitempty"`
	// Draining mirrors the 503 status during shutdown notice.
	Draining bool `json:"draining,omitempty"`
}

// FiltersResponse is the body of GET /v1/filters: every managed
// target's versioned filter registry plus reservoir gauges.
type FiltersResponse struct {
	Targets []online.TargetStatus `json:"targets"`
}

// PolicyInfo describes one serving policy: which target it serves,
// its display name, registry kind, content identity, and provenance.
type PolicyInfo struct {
	Target string `json:"target"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	ID     string `json:"id"`
	// TrainedFor is the machine target recorded in the policy's
	// provenance (may differ from Target for transferred filters).
	TrainedFor string `json:"trained_for,omitempty"`
	Detail     string `json:"detail,omitempty"`
	// Version is the online registry version serving the target (0
	// without online learning).
	Version int `json:"version,omitempty"`
}

// PolicyKindInfo describes one registered policy kind.
type PolicyKindInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// PoliciesResponse is the body of GET /v1/policies: the registered
// policy kinds plus every servable target's active policy.
type PoliciesResponse struct {
	Kinds  []PolicyKindInfo `json:"kinds"`
	Active []PolicyInfo     `json:"active"`
}

// RetrainRequest is the input of POST /v1/retrain. An empty Target
// retrains every managed target.
type RetrainRequest struct {
	Target string `json:"target,omitempty"`
}

// RetrainResponse reports the retraining rounds the request ran.
type RetrainResponse struct {
	Reports []*online.RetrainReport `json:"reports"`
}

// FilterActionRequest is the input of POST /v1/filters/{version}/activate
// and POST /v1/filters/rollback; Target defaults to the server's default
// machine target.
type FilterActionRequest struct {
	Target string `json:"target,omitempty"`
}

// FilterActionResponse reports an activation or rollback: the version
// now serving the target.
type FilterActionResponse struct {
	Target  string         `json:"target"`
	Version online.Version `json:"version"`
}
