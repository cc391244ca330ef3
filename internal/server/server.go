// Package server is the compile service: scheduling-as-a-service over
// the internal compile, policy and scheduling packages. It exposes the
// compile → filter → schedule → execute pipeline as an HTTP/JSON API,
// runs every compilation on a bounded worker pool (full queue → 429,
// shutdown → 503), shares one content-addressed scheduled-block cache
// across all requests, and reports per-endpoint counters and latencies
// plus cache and pool gauges at /metrics (Prometheus text format) and
// profiles at /debug/pprof. serve.go holds the serving skeleton the
// cluster gateway reuses.
//
// Endpoints:
//
//	POST /v1/compile   Jolt source (or bundled workload) → machine code
//	POST /v1/schedule  compile + filter-gated scheduling through the cache
//	POST /v1/predict   filter decisions only (features + rules, no scheduling)
//	POST /v1/execute   compile + schedule + cycle-timed simulation
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness + serving policy/model
//	GET  /debug/pprof  Go profiling endpoints
//
// The daemon wrapper is cmd/schedserved; the client and load generator
// are cmd/schedctl.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/core"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/obs"
	"schedfilter/internal/online"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// Config parameterizes the service.
type Config struct {
	// Node is this instance's name in a cluster: reported on /healthz,
	// stamped on every response as the X-Sched-Node header, and used by
	// the gateway to attribute routing. Empty is fine for a single-node
	// deployment — the header and health field are then omitted.
	Node string
	// Target names the default machine target for requests that don't
	// select one; empty selects the registry default (mpc7410). Every
	// registered target is served either way — this only picks which one
	// an unadorned request gets.
	Target string
	// Filter is the default scheduling policy for requests that don't
	// select one; nil selects LS (always schedule).
	Filter policy.Policy
	// Workers sizes the compile worker pool; 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; 0 selects 4×Workers.
	// Submissions beyond Workers+QueueDepth are rejected with 429.
	QueueDepth int
	// CacheWeight bounds the scheduled-block cache in words; 0 selects
	// a default sized for sustained traffic.
	CacheWeight int
	// JIT configures compilation; the zero value selects the defaults.
	JIT jit.Options
	// Online enables the online-learning loop: live traffic feeds
	// per-target sample reservoirs, a background trainer periodically
	// re-induces the filter, candidates are shadow-gated against the
	// incumbent, and promotions hot-swap the default serving filter.
	Online bool
	// OnlineOpts parameterize the loop when Online is set; the zero
	// value selects defaults. Boot is overwritten with Config.Filter —
	// the server's configured filter is always version 1.
	OnlineOpts online.Config
}

func (c Config) withDefaults() Config {
	if c.Target == "" {
		c.Target = machine.DefaultTargetName
	}
	if c.Filter == nil {
		c.Filter = policy.Always{}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheWeight <= 0 {
		c.CacheWeight = 1 << 20
	}
	if c.JIT == (jit.Options{}) {
		c.JIT = jit.DefaultOptions()
	}
	return c
}

// machineTarget is one servable machine: the registered target's
// immutable model, held for the server's whole lifetime, plus its own
// content-addressed scheduled-block cache. Caches are per target so one
// machine's traffic can never evict another's hot blocks.
type machineTarget struct {
	name  string
	model *machine.Model
	cache *codecache.Cache
}

// executeStepLimit bounds the instructions one /v1/execute runs: about
// 17 times the largest bundled program (bh, 7.6M at default options), so
// a runaway program fails in seconds with the step-limit error (400)
// instead of running to the simulator's default of 2^33.
const executeStepLimit = 1 << 27

// Server is one compile-service instance. Create with New, serve its
// Handler, and Close it to drain in-flight compilations on shutdown.
type Server struct {
	cfg     Config
	targets map[string]*machineTarget
	order   []string // target names in registry order, for stable output
	def     *machineTarget
	pool    *pool
	obs     *serverObs
	mux     *http.ServeMux
	// flight coalesces concurrent identical schedule/execute requests
	// (same program fingerprint + filter identity) into one scheduling
	// pass — the stampede that follows a filter activation flushing
	// cluster affinity costs one pass instead of N.
	flight codecache.Flight
	// memo holds the compiled programs of repeat sources.
	memo *programMemo
	// schedFlightHook, when non-nil, runs inside a schedule flight leader
	// before its pass. Tests set it (before serving traffic) to hold a
	// leader in flight while a stampede forms; production leaves it nil.
	schedFlightHook func()
	// online is the learning loop (nil when Config.Online is unset).
	online *online.Manager
	// stepLimit is executeStepLimit; tests lower it.
	stepLimit int64
	// Drain flips /healthz to 503 when shutdown begins; compile
	// endpoints keep serving until the pool closes.
	Drain
}

// New builds a server. Every registered machine target is servable; the
// worker pool starts immediately. Panics on a Config.Target that names no
// registered target — that is a deployment error, not a request error.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		targets:   map[string]*machineTarget{},
		pool:      newPool(cfg.Workers, cfg.QueueDepth),
		memo:      newProgramMemo(),
		stepLimit: executeStepLimit,
	}
	for _, tgt := range machine.All() {
		s.targets[tgt.Name] = &machineTarget{
			name:  tgt.Name,
			model: tgt.Model,
			cache: codecache.New(cfg.CacheWeight),
		}
		s.order = append(s.order, tgt.Name)
	}
	def, ok := s.targets[cfg.Target]
	if !ok {
		panic(fmt.Sprintf("server: default target %q is not registered", cfg.Target))
	}
	s.def = def
	if cfg.Online {
		oc := cfg.OnlineOpts
		oc.Boot = cfg.Filter
		mgr, err := online.NewManager(oc)
		if err != nil {
			// Misconfigured online loop (unknown target, unreadable
			// spill) is a deployment error, like an unknown default
			// target.
			panic(fmt.Sprintf("server: online learning: %v", err))
		}
		s.online = mgr
	}
	// Metrics registration reads the targets, pool, flight, and online
	// loop built above; the registry then serves /metrics directly.
	s.obs = newServerObs(s, "compile", "schedule", "predict", "execute",
		"filters", "activate", "rollback", "retrain")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.endpoint("compile", s.doCompile))
	mux.HandleFunc("POST /v1/schedule", s.endpoint("schedule", s.doSchedule))
	mux.HandleFunc("POST /v1/predict", s.endpoint("predict", s.doPredict))
	mux.HandleFunc("POST /v1/execute", s.endpoint("execute", s.doExecute))
	mux.HandleFunc("GET /v1/filters", s.handleFilters)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("POST /v1/filters/{version}/activate", s.handleActivate)
	mux.HandleFunc("POST /v1/filters/rollback", s.handleRollback)
	mux.HandleFunc("POST /v1/retrain", s.handleRetrain)
	mux.Handle("GET /metrics", s.obs.reg)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the default target's scheduled-block cache (for stats
// and tests); CacheFor exposes any target's.
func (s *Server) Cache() *codecache.Cache { return s.def.cache }

// CacheFor returns the named target's scheduled-block cache, or nil for
// an unknown target.
func (s *Server) CacheFor(target string) *codecache.Cache {
	if mt, ok := s.targets[target]; ok {
		return mt.cache
	}
	return nil
}

// resolveTarget picks the request's machine target: the server default
// for an empty name, otherwise a registered target. Unknown names are a
// client fault.
func (s *Server) resolveTarget(name string) (*machineTarget, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return s.def, nil
	}
	if mt, ok := s.targets[name]; ok {
		return mt, nil
	}
	return nil, fmt.Errorf("unknown target %q (known: %s)", name, strings.Join(s.order, ", "))
}

// Close drains the worker pool: queued and in-flight compilations finish,
// new submissions are rejected with 503. The online loop (when enabled)
// stops afterwards and spills its reservoirs. Call after the HTTP
// listener has stopped accepting (http.Server.Shutdown) for a fully
// graceful stop.
func (s *Server) Close() {
	s.pool.Close()
	if s.online != nil {
		_ = s.online.Close()
	}
}

// Online exposes the learning loop's manager (nil when disabled); tests
// and the daemon use it.
func (s *Server) Online() *online.Manager { return s.online }

// endpoint wraps one compiler endpoint: adopt (or mint) the request's
// trace, read the body on the connection goroutine, run work on the
// bounded pool (measuring queue wait into the trace), seal the trace
// into the response, encode, record metrics. work returns the response
// value or a client-fault error (400).
func (s *Server) endpoint(name string, work func(ctx context.Context, body []byte) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep := s.obs.eps.Get(name)
		tr := obs.StartTrace(r.Header.Get(obs.TraceHeader))
		body, err := ReadBody(w, r)
		if err != nil {
			s.reply(w, ep, tr, start, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		ctx := obs.WithTrace(r.Context(), tr)
		var resp any
		var workErr error
		submit := time.Now()
		err = s.pool.Do(ctx, func() {
			tr.Record(obs.PhaseQueueWait, time.Since(submit).Nanoseconds())
			resp, workErr = work(ctx, body)
		})
		switch {
		case errors.Is(err, ErrBusy):
			w.Header().Set("Retry-After", "1")
			s.reply(w, ep, tr, start, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
		case errors.Is(err, ErrClosed):
			s.reply(w, ep, tr, start, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		case err != nil, errors.Is(workErr, context.Canceled), errors.Is(workErr, context.DeadlineExceeded):
			// Client went away mid-job (before or during the work); the
			// write below is best-effort.
			if err == nil {
				err = workErr
			}
			s.reply(w, ep, tr, start, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		case workErr != nil:
			s.reply(w, ep, tr, start, http.StatusBadRequest, ErrorResponse{Error: workErr.Error()})
		default:
			info := tr.Finish(time.Since(start).Nanoseconds())
			if tc, ok := resp.(traceCarrier); ok {
				tc.setTrace(info)
			}
			s.obs.observeSpans(info)
			s.reply(w, ep, tr, start, http.StatusOK, resp)
		}
	}
}

// reply records the response outcome and writes the JSON body. The
// trace ID is echoed on every response — including errors — so a caller
// can correlate failures too; tr may be nil for untraced handlers.
func (s *Server) reply(w http.ResponseWriter, ep *obs.Endpoint, tr *obs.Trace, start time.Time, status int, v any) {
	if s.cfg.Node != "" {
		w.Header().Set("X-Sched-Node", s.cfg.Node)
	}
	if id := tr.ID(); id != "" {
		w.Header().Set(obs.TraceHeader, id)
	}
	Reply(w, ep, start, status, v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.ServeHealth(w, func(status string, draining bool) any {
		resp := HealthResponse{
			Status:   status,
			Node:     s.cfg.Node,
			Policy:   s.cfg.Filter.Name(),
			PolicyID: policy.ID(s.cfg.Filter),
			Model:    s.def.model.Name,
			Target:   s.def.name,
			Targets:  append([]string(nil), s.order...),
			Draining: draining,
		}
		if s.online != nil {
			resp.Online = true
			f, version := s.online.ActiveFilter(s.def.name)
			resp.Policy = f.Name()
			resp.PolicyID = policy.ID(f)
			resp.FilterVersion = version
			resp.ActiveFilters = s.online.ActiveSummary()
		}
		return resp
	})
}

// handlePolicies serves GET /v1/policies: the registered policy kinds
// plus every servable target's active policy (name, kind, content
// identity, provenance, online version). Unlike /v1/filters it answers
// with or without online learning — the serving policy always exists.
func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	resp := PoliciesResponse{}
	for _, k := range policy.Kinds() {
		resp.Kinds = append(resp.Kinds, PolicyKindInfo{Name: k.Name, Description: k.Description})
	}
	for _, name := range s.order {
		f, version := s.cfg.Filter, 0
		if s.online != nil {
			f, version = s.online.ActiveFilter(name)
		}
		pv := f.Provenance()
		resp.Active = append(resp.Active, PolicyInfo{
			Target:     name,
			Name:       f.Name(),
			Kind:       pv.Kind,
			ID:         policy.ID(f),
			TrainedFor: pv.Target,
			Detail:     pv.Detail,
			Version:    version,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// compileInput compiles a request's program (inline source or bundled
// workload) to unscheduled machine code through the compiled-program
// memo. The returned program is the caller's own to reorder; the entry,
// non-nil when the source is memoized, carries its fingerprint.
func (s *Server) compileInput(in ProgramInput) (*ir.Program, *memoEntry, time.Duration, error) {
	start := time.Now()
	var source string
	switch {
	case in.Source != "" && in.Workload != "":
		return nil, nil, 0, fmt.Errorf("source and workload are mutually exclusive")
	case in.Source != "":
		source = in.Source
	case in.Workload != "":
		w := workloads.ByName(in.Workload)
		if w == nil {
			return nil, nil, 0, fmt.Errorf("schedfilter: no workload named %q", in.Workload)
		}
		source = w.Source
	default:
		return nil, nil, 0, fmt.Errorf("request needs source or workload")
	}
	if e := s.memo.get(source); e != nil {
		return e.prog.Clone(), e, time.Since(start), nil
	}
	mod, err := jolt.Compile(source)
	if err != nil {
		return nil, nil, 0, err
	}
	prog, err := jit.Compile(mod, s.cfg.JIT)
	if err != nil {
		return nil, nil, 0, err
	}
	if e := s.memo.admit(source, prog); e != nil {
		return e.prog.Clone(), e, time.Since(start), nil
	}
	return prog, nil, time.Since(start), nil
}

// programKey fingerprints a request's still unscheduled program under the
// target's model and the policy's content identity, reusing the memo
// entry's fingerprint when it has one, and records the fingerprint span.
func programKey(tr *obs.Trace, mt *machineTarget, policyID string, prog *ir.Program, e *memoEntry) codecache.Key {
	start := time.Now()
	var key codecache.Key
	if e != nil {
		key = e.key(mt.model, policyID)
	} else {
		key = codecache.ProgramKey(mt.model.Name, policyID, prog)
	}
	tr.Record(obs.PhaseFingerprint, time.Since(start).Nanoseconds())
	return key
}

// resolvePolicy picks the request's scheduling policy for a machine
// target: inline model text first, then ProgramInput.Policy in the
// policy spec mini-language, with "default"/empty meaning the server's
// configured (or online-active) policy. The returned version is non-zero
// only when the policy came from the online registry's active slot — the
// number hot-swaps change and loadgen tallies.
func (s *Server) resolvePolicy(policySpec string, spec FilterSpec, mt *machineTarget) (policy.Policy, int, error) {
	if spec.Model != "" {
		f, err := policy.Parse(spec.Model, mt.name)
		return f, 0, err
	}
	name := strings.TrimSpace(policySpec)
	if name == "" || strings.EqualFold(name, "default") {
		if s.online != nil {
			f, version := s.online.ActiveFilter(mt.name)
			return f, version, nil
		}
		return s.cfg.Filter, 0, nil
	}
	f, err := policy.FromSpec(name, mt.name)
	if err != nil {
		return nil, 0, err
	}
	return f, 0, nil
}

// observe feeds a freshly compiled (still unscheduled) program to the
// online sample collector. Must run before the scheduling pass reorders
// blocks — the collector needs original-order instruction content.
func (s *Server) observe(mt *machineTarget, prog *ir.Program) {
	if s.online != nil {
		s.online.Observe(mt.name, prog)
	}
}

// decodeRequest decodes a compile-path request body into req. Fields
// the request type does not declare — such as the retired "filter"
// selector — are refused by name instead of silently ignored, so a
// stale client never gets the default policy without notice.
func decodeRequest(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr != io.EOF {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	return nil
}

func (s *Server) doCompile(ctx context.Context, body []byte) (any, error) {
	var req CompileRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, err
	}
	// compile needs no machine, but an unknown target is still a bad
	// request — catch it here rather than on the follow-up schedule.
	if _, err := s.resolveTarget(req.Target); err != nil {
		return nil, err
	}
	prog, _, compileT, err := s.compileInput(req.ProgramInput)
	if err != nil {
		return nil, err
	}
	obs.TraceFrom(ctx).Record(obs.PhaseCompile, compileT.Nanoseconds())
	resp := &CompileResponse{
		Fns:       len(prog.Fns),
		Blocks:    prog.NumBlocks(),
		Instrs:    prog.NumInstrs(),
		CompileNs: compileT.Nanoseconds(),
	}
	if req.Listing {
		resp.Listing = prog.String()
	}
	return resp, nil
}

// schedulePass runs the policy-gated scheduling pass for a request on
// the resolved target's machine and cache, and feeds the pass totals
// into the server metrics. The pass runs with phase timing on, so the
// returned stats carry the per-phase breakdown traces report.
func (s *Server) schedulePass(prog *ir.Program, f policy.Policy, mt *machineTarget, noCache bool) core.Stats {
	cache := mt.cache
	if noCache {
		cache = nil
	}
	st := core.Apply(mt.model, prog, f, core.Pass{Cache: cache, Timed: true})
	runs := st.CacheMisses
	if noCache {
		runs = st.Scheduled
	}
	s.obs.blocksSeen.Add(int64(st.Blocks))
	s.obs.blocksScheduled.Add(int64(st.Scheduled))
	s.obs.schedulerRuns.Add(int64(runs))
	s.obs.cacheHits.Add(int64(st.CacheHits))
	s.obs.schedNs.Add(st.SchedTime.Nanoseconds())
	return st
}

// recordSchedPhases feeds a pass's phase breakdown into the request's
// trace. Callers skip it for coalesced responses: a follower's wall
// time overlaps only part of the leader's pass, and recording the
// leader's phases could break the sum(spans) ≤ total invariant.
func recordSchedPhases(tr *obs.Trace, st core.Stats) {
	tr.Record(obs.PhaseCacheLookup, st.Phases.CacheLookupNs)
	tr.Record(obs.PhaseDAGBuild, st.Phases.DAGBuildNs)
	tr.Record(obs.PhaseListSchedule, st.Phases.ListSchedNs)
	tr.Record(obs.PhaseEstimator, st.Phases.EstimatorNs)
}

func (s *Server) doSchedule(ctx context.Context, body []byte) (any, error) {
	var req ScheduleRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, err
	}
	mt, err := s.resolveTarget(req.Target)
	if err != nil {
		return nil, err
	}
	f, version, err := s.resolvePolicy(req.Policy, req.FilterSpec, mt)
	if err != nil {
		return nil, err
	}
	prog, entry, compileT, err := s.compileInput(req.ProgramInput)
	if err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	tr.Record(obs.PhaseCompile, compileT.Nanoseconds())
	s.observe(mt, prog)
	// The fingerprint context is the filter's content identity, not its
	// display name: two hot-swapped filter versions that share a label
	// must never alias. Computed on the unscheduled program, it doubles
	// as the singleflight key: scheduling is deterministic in (model,
	// filter, input code), so concurrent identical requests can share one
	// pass. NoCache requests promise an uncached pass and stay out.
	policyID := policy.ID(f)
	key := programKey(tr, mt, policyID, prog, entry)
	var st core.Stats
	coalesced := false
	if req.NoCache {
		st = s.schedulePass(prog, f, mt, true)
	} else {
		v, shared := s.flight.Do(key, func() any {
			if s.schedFlightHook != nil {
				s.schedFlightHook()
			}
			return s.schedulePass(prog, f, mt, false)
		})
		st = v.(core.Stats)
		coalesced = shared
	}
	if !coalesced {
		recordSchedPhases(tr, st)
	}
	return &ScheduleResponse{
		Policy:        f.Name(),
		PolicyID:      policyID,
		FilterVersion: version,
		Target:        mt.name,
		Blocks:        st.Blocks,
		Scheduled:     st.Scheduled,
		NotScheduled:  st.NotScheduled,
		Changed:       st.Changed,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		CostBefore:    st.CostBefore,
		CostAfter:     st.CostAfter,
		CompileNs:     compileT.Nanoseconds(),
		SchedNs:       st.SchedTime.Nanoseconds(),
		ProgramKey:    hex.EncodeToString(key[:]),
		Coalesced:     coalesced,
	}, nil
}

func (s *Server) doPredict(ctx context.Context, body []byte) (any, error) {
	var req PredictRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, err
	}
	// Prediction reads only target-independent features, but the target
	// still selects which online filter version serves "default" (and an
	// unknown name is still a client fault).
	mt, err := s.resolveTarget(req.Target)
	if err != nil {
		return nil, err
	}
	f, version, err := s.resolvePolicy(req.Policy, req.FilterSpec, mt)
	if err != nil {
		return nil, err
	}
	prog, _, compileT, err := s.compileInput(req.ProgramInput)
	if err != nil {
		return nil, err
	}
	obs.TraceFrom(ctx).Record(obs.PhaseCompile, compileT.Nanoseconds())
	resp := &PredictResponse{
		Policy:        f.Name(),
		PolicyID:      policy.ID(f),
		FilterVersion: version,
	}
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			v := features.ExtractBlock(b)
			yes, conf := f.Decide(v)
			resp.Blocks++
			if yes {
				resp.WouldSchedule++
			}
			if req.Detail {
				resp.Decisions = append(resp.Decisions, BlockDecision{
					Fn:         fn.Name,
					Block:      b.ID,
					BBLen:      b.Len(),
					Schedule:   yes,
					Confidence: conf,
				})
			}
		}
	}
	return resp, nil
}

func (s *Server) doExecute(ctx context.Context, body []byte) (any, error) {
	var req ExecuteRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, err
	}
	mt, err := s.resolveTarget(req.Target)
	if err != nil {
		return nil, err
	}
	f, version, err := s.resolvePolicy(req.Policy, req.FilterSpec, mt)
	if err != nil {
		return nil, err
	}
	prog, entry, compileT, err := s.compileInput(req.ProgramInput)
	if err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	tr.Record(obs.PhaseCompile, compileT.Nanoseconds())
	s.observe(mt, prog)
	// Execute must schedule its own program copy before simulating, but
	// concurrent identical requests still coalesce the scheduler work:
	// followers wait for the leader's pass to warm the scheduled-block
	// cache, then their own pass replays from it (all hits).
	policyID := policy.ID(f)
	key := programKey(tr, mt, policyID, prog, entry)
	v, coalesced := s.flight.Do(key, func() any {
		return s.schedulePass(prog, f, mt, false)
	})
	st := v.(core.Stats)
	if coalesced {
		st = s.schedulePass(prog, f, mt, false)
	}
	// Either way the pass whose phases we report ran inside this
	// request's wall time (followers re-ran their own replay pass).
	recordSchedPhases(tr, st)
	simStart := time.Now()
	res, err := sim.Run(prog, sim.Config{Context: ctx, Timed: !req.Untimed, Model: mt.model, StepLimit: s.stepLimit})
	if err != nil {
		return nil, err
	}
	tr.Record(obs.PhaseSim, time.Since(simStart).Nanoseconds())
	return &ExecuteResponse{
		Policy:        f.Name(),
		PolicyID:      policyID,
		FilterVersion: version,
		Target:        mt.name,
		Ret:           res.Ret,
		Cycles:        res.Cycles,
		DynInstrs:     res.DynInstrs,
		Output:        res.Output,
		Scheduled:     st.Scheduled,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		CompileNs:     compileT.Nanoseconds(),
		SchedNs:       st.SchedTime.Nanoseconds(),
		SimNs:         time.Since(simStart).Nanoseconds(),
	}, nil
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// drains it through Serve's shutdown sequence; the worker pool closes
// last.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return Serve(ctx, s, addr, drainTimeout)
}
