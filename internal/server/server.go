// Package server is the compile service: scheduling-as-a-service over
// the internal compile, policy and scheduling packages. It exposes the
// compile → filter → schedule → execute pipeline as an HTTP/JSON API,
// runs every compilation behind a bounded admission gate (full queue →
// 429, shutdown → 503), shares one content-addressed scheduled-block
// cache across all requests, and reports per-endpoint counters and
// latencies plus cache and gate gauges at /metrics (Prometheus text
// format) and profiles at /debug/pprof. serve.go holds the serving
// skeleton the cluster gateway reuses.
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
	// Workers bounds the compilations that run at once; 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; 0 selects 4×Workers.
	// Submissions beyond Workers+QueueDepth are rejected with 429.
	QueueDepth int
	// CacheWeight bounds the scheduled-block cache in words; 0 selects
	// a default sized for sustained traffic.
	CacheWeight int
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
	// schedFlightHook, when non-nil, runs inside a flight leader before
	// its pass. Tests set it (before serving traffic) to hold a
	// leader in flight while a stampede forms; production leaves it nil.
	schedFlightHook func()
	// online is the learning loop (nil when Config.Online is unset).
	online *online.Manager
	// stepLimit is executeStepLimit; tests lower it.
	stepLimit int64
	// Drain flips /healthz to 503 when shutdown begins; compile
	// endpoints keep serving until the admission gate closes.
	Drain
}

// New builds a server. Every registered machine target is servable.
// Panics on a Config.Target that names no registered target — that is a
// deployment error, not a request error.
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
	// Metrics registration reads the targets, gate, flight, and online
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

// Close drains the admission gate: queued and in-flight compilations
// finish, new submissions are rejected with 503. The online loop (when
// enabled) stops afterwards and spills its reservoirs. Call after the
// HTTP listener has stopped accepting (http.Server.Shutdown) for a fully
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
// trace, read the body, run work once the admission gate grants a slot
// (measuring queue wait into the trace), seal the trace into the
// response, encode, record metrics. work returns the response value or a
// client-fault error (400).
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
			// Client went away while queued (the work never ran) or
			// mid-work; the write below is best-effort.
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
// memo. The entry, non-nil when the source is memoized, carries its block
// keys and pass records; its program is the pristine one, which the
// caller must only read. Without an entry the program is the caller's.
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
		return e.prog, e, time.Since(start), nil
	}
	mod, err := jolt.Compile(source, jolt.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	prog, err := jit.Compile(mod, jit.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	if e := s.memo.admit(source, prog); e != nil {
		return e.prog, e, time.Since(start), nil
	}
	return prog, nil, time.Since(start), nil
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

// decodeRequest decodes a compile-path request body into req. Fields
// the request type does not declare — such as the retired "filter"
// selector — are refused by name instead of silently ignored, so a
// stale client never gets the default policy without notice. Anything
// but JSON whitespace after the object is refused too.
func decodeRequest(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errors.New("trailing data after the request object")
	}
	if err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	return nil
}

// prepared is a compile-path request after the preparation every endpoint
// shares.
type prepared struct {
	tr       *obs.Trace
	mt       *machineTarget
	f        policy.Policy // nil for compile
	policyID string        // policy.ID(f)
	version  int
	prog     *ir.Program
	entry    *memoEntry
	compileT time.Duration
}

// prepare decodes body into req and runs the steps every compile-path
// endpoint shares: resolve the target (even compile refuses an unknown
// one), resolve the policy and its identity when the request carries a
// spec (compile has none), compile through the memo, and record the
// compile span. in and spec point into req.
func (s *Server) prepare(ctx context.Context, body []byte, req any, in *ProgramInput, spec *FilterSpec) (prepared, error) {
	var pr prepared
	if err := decodeRequest(body, req); err != nil {
		return pr, err
	}
	var err error
	if pr.mt, err = s.resolveTarget(in.Target); err != nil {
		return pr, err
	}
	if spec != nil {
		if pr.f, pr.version, err = s.resolvePolicy(in.Policy, *spec, pr.mt); err != nil {
			return pr, err
		}
		pr.policyID = policy.ID(pr.f)
	}
	if pr.prog, pr.entry, pr.compileT, err = s.compileInput(*in); err != nil {
		return pr, err
	}
	pr.tr = obs.TraceFrom(ctx)
	pr.tr.Record(obs.PhaseCompile, pr.compileT.Nanoseconds())
	return pr, nil
}

// schedule feeds the unscheduled program to the online collector, then
// returns pr's finished pass: its recorded pass replayed, or a pass run
// on its target's machine and cache. The pass's program is the scheduled
// one, which no caller writes. A pass is keyed by the program's
// fingerprint under the policy's content identity, not its display name:
// two hot-swapped filter versions that share a label must never alias.
// The key doubles as the singleflight key: scheduling is deterministic in
// (model, policy, input code), so concurrent identical requests share the
// leader's pass and all but the leader report coalesced. A noCache pass
// stays out of the flight.
func (s *Server) schedule(pr *prepared, noCache bool) (passRecord, bool) {
	if s.online != nil {
		// The collector needs original-order instruction content.
		s.online.Observe(pr.mt.name, pr.prog, pr.entry.blockKeys(s.memo, pr.mt.model))
	}
	if !noCache {
		if r, ok := s.replay(pr); ok {
			return r, false
		}
	}
	start := time.Now()
	key := codecache.ProgramKey(pr.mt.model.Name, pr.policyID, pr.prog)
	pr.tr.Record(obs.PhaseFingerprint, time.Since(start).Nanoseconds())
	if noCache {
		return s.schedulePass(pr, key, true), false
	}
	v, coalesced := s.flight.Do(key, func() any {
		if s.schedFlightHook != nil {
			s.schedFlightHook()
		}
		r := s.schedulePass(pr, key, false)
		return &r
	})
	return *v.(*passRecord), coalesced
}

// replay answers pr from its memo entry's record for pr's target and
// policy, if there is one, as a fully cached pass (every scheduled block
// a hit) whose only phase is the record lookup.
func (s *Server) replay(pr *prepared) (passRecord, bool) {
	if pr.entry == nil {
		return passRecord{}, false
	}
	start := time.Now()
	r := pr.entry.pass(pr.mt.model.Name, pr.policyID)
	if r == nil {
		return passRecord{}, false
	}
	rec := *r
	rec.st.CacheHits, rec.st.CacheMisses = rec.st.Scheduled, 0
	rec.st.SchedTime = time.Since(start)
	rec.st.Phases.CacheLookupNs = rec.st.SchedTime.Nanoseconds()
	s.account(rec.st)
	return rec, true
}

// schedulePass runs pr's pass under key, with phase timing on for traces,
// and feeds its totals into the server metrics. A memoized source runs on
// a blockCopy of its pristine program, and a cached pass is recorded.
func (s *Server) schedulePass(pr *prepared, key codecache.Key, noCache bool) passRecord {
	cache := pr.mt.cache
	if noCache {
		cache = nil
	}
	start := time.Now()
	prog := pr.prog
	if pr.entry != nil {
		prog = blockCopy(pr.entry.prog)
	}
	copyT := time.Since(start)
	st := core.Apply(pr.mt.model, prog, pr.f, core.Pass{Cache: cache, Timed: true})
	st.SchedTime += copyT
	r := passRecord{model: pr.mt.model.Name, policyID: pr.policyID, key: key, st: st, prog: prog}
	if pr.entry != nil && !noCache {
		pr.entry.storePass(s.memo, r)
	}
	s.account(st)
	return r
}

// account feeds a pass's totals into the server metrics. Every scheduled
// block that was not a cache hit ran the list scheduler.
func (s *Server) account(st core.Stats) {
	s.obs.blocksSeen.Add(int64(st.Blocks))
	s.obs.blocksScheduled.Add(int64(st.Scheduled))
	s.obs.schedulerRuns.Add(int64(st.Scheduled - st.CacheHits))
	s.obs.cacheHits.Add(int64(st.CacheHits))
	s.obs.schedNs.Add(st.SchedTime.Nanoseconds())
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

func (s *Server) doCompile(ctx context.Context, body []byte) (any, error) {
	var req CompileRequest
	pr, err := s.prepare(ctx, body, &req, &req.ProgramInput, nil)
	if err != nil {
		return nil, err
	}
	resp := &CompileResponse{
		Fns:       len(pr.prog.Fns),
		Blocks:    pr.prog.NumBlocks(),
		Instrs:    pr.prog.NumInstrs(),
		CompileNs: pr.compileT.Nanoseconds(),
	}
	if req.Listing {
		resp.Listing = pr.prog.String()
	}
	return resp, nil
}

func (s *Server) doSchedule(ctx context.Context, body []byte) (any, error) {
	var req ScheduleRequest
	pr, err := s.prepare(ctx, body, &req, &req.ProgramInput, &req.FilterSpec)
	if err != nil {
		return nil, err
	}
	r, coalesced := s.schedule(&pr, req.NoCache)
	if !coalesced {
		recordSchedPhases(pr.tr, r.st)
	}
	st := r.st
	return &ScheduleResponse{
		Policy:        pr.f.Name(),
		PolicyID:      pr.policyID,
		FilterVersion: pr.version,
		Target:        pr.mt.name,
		Blocks:        st.Blocks,
		Scheduled:     st.Scheduled,
		NotScheduled:  st.NotScheduled,
		Changed:       st.Changed,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		CostBefore:    st.CostBefore,
		CostAfter:     st.CostAfter,
		CompileNs:     pr.compileT.Nanoseconds(),
		SchedNs:       st.SchedTime.Nanoseconds(),
		ProgramKey:    hex.EncodeToString(r.key[:]),
		Coalesced:     coalesced,
	}, nil
}

func (s *Server) doPredict(ctx context.Context, body []byte) (any, error) {
	var req PredictRequest
	// Prediction reads only target-independent features, but the target
	// still selects which online filter version serves "default".
	pr, err := s.prepare(ctx, body, &req, &req.ProgramInput, &req.FilterSpec)
	if err != nil {
		return nil, err
	}
	resp := &PredictResponse{
		Policy:        pr.f.Name(),
		PolicyID:      pr.policyID,
		FilterVersion: pr.version,
	}
	for _, fn := range pr.prog.Fns {
		for _, b := range fn.Blocks {
			v := features.ExtractBlock(b)
			yes, conf := pr.f.Decide(v)
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
	pr, err := s.prepare(ctx, body, &req, &req.ProgramInput, &req.FilterSpec)
	if err != nil {
		return nil, err
	}
	// A coalesced follower simulates its leader's scheduled program.
	r, coalesced := s.schedule(&pr, false)
	if !coalesced {
		recordSchedPhases(pr.tr, r.st)
	}
	st := r.st
	simStart := time.Now()
	res, err := sim.Run(r.prog, sim.Config{Context: ctx, Timed: !req.Untimed, Model: pr.mt.model, StepLimit: s.stepLimit})
	if err != nil {
		return nil, err
	}
	pr.tr.Record(obs.PhaseSim, time.Since(simStart).Nanoseconds())
	return &ExecuteResponse{
		Policy:        pr.f.Name(),
		PolicyID:      pr.policyID,
		FilterVersion: pr.version,
		Target:        pr.mt.name,
		Ret:           res.Ret,
		Cycles:        res.Cycles,
		DynInstrs:     res.DynInstrs,
		Output:        res.Output,
		Scheduled:     st.Scheduled,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		CompileNs:     pr.compileT.Nanoseconds(),
		SchedNs:       st.SchedTime.Nanoseconds(),
		SimNs:         time.Since(simStart).Nanoseconds(),
	}, nil
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// drains it through Serve's shutdown sequence; the admission gate
// closes last.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return Serve(ctx, s, addr, drainTimeout)
}
