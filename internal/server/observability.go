package server

import (
	"sort"
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/obs"
)

// serverObs is the server's registration on the shared obs registry:
// per-endpoint request counters, latency sum/max (the historical
// lines) plus request-latency and per-phase histograms (the new ones),
// the scheduling-pass totals, and render-time gauges over the caches,
// pool, and online loop. Handles are resolved here, once, so the
// request path records through atomics only.
type serverObs struct {
	reg   *obs.Registry
	start time.Time
	eps   map[string]*epMetrics
	phase map[string]*obs.Histogram

	// Scheduling-pass totals across schedule and execute requests.
	// schedulerRuns counts actual list-scheduler invocations (cache
	// misses); a fully cached request adds zero — the counter the load
	// generator asserts on.
	blocksSeen      *obs.Counter
	blocksScheduled *obs.Counter
	schedulerRuns   *obs.Counter
	cacheHits       *obs.Counter
	schedNs         *obs.Counter

	// throwaway absorbs records against unknown endpoint names.
	throwaway *epMetrics
}

// epMetrics are one endpoint's handles.
type epMetrics struct {
	ok        *obs.Counter // 2xx responses
	clientErr *obs.Counter // 4xx other than 429
	rejected  *obs.Counter // 429 (queue full)
	serverErr *obs.Counter // 5xx
	// Successful-response latency: historical sum/max lines plus the
	// histogram percentiles feed on.
	latencySum *obs.Counter
	latencyMax *obs.Max
	latency    *obs.Histogram
}

// record tallies one response, mirroring the historical outcome split.
func (e *epMetrics) record(status int, elapsed time.Duration) {
	switch {
	case status == 429:
		e.rejected.Inc()
	case status >= 500:
		e.serverErr.Inc()
	case status >= 400:
		e.clientErr.Inc()
	default:
		e.ok.Inc()
		ns := elapsed.Nanoseconds()
		e.latencySum.Add(ns)
		e.latencyMax.Observe(ns)
		e.latency.Observe(ns)
	}
}

// serverPhases are the span names this layer can observe (route is the
// gateway's).
var serverPhases = []string{
	obs.PhaseQueueWait, obs.PhaseCompile, obs.PhaseFingerprint, obs.PhaseCacheLookup,
	obs.PhaseDAGBuild, obs.PhaseListSchedule, obs.PhaseEstimator, obs.PhaseSim,
}

// newServerObs registers every server metric. Call after the server's
// targets, pool, flight, and online loop exist — the gauges read them
// live at render time. The historical metric names (schedserved_*,
// codecache_*, online_*) are locked byte-for-byte by the compat test.
func newServerObs(s *Server, endpoints ...string) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:   reg,
		start: time.Now(),
		eps:   make(map[string]*epMetrics, len(endpoints)),
		phase: make(map[string]*obs.Histogram, len(serverPhases)),
	}
	sorted := append([]string(nil), endpoints...)
	sort.Strings(sorted)
	newEp := func(name string) *epMetrics {
		l := obs.L("endpoint", name)
		return &epMetrics{
			ok:        reg.Counter("schedserved_requests_total", "Requests by endpoint and outcome.", l, obs.L("outcome", "ok")),
			clientErr: reg.Counter("schedserved_requests_total", "", l, obs.L("outcome", "client_error")),
			rejected:  reg.Counter("schedserved_requests_total", "", l, obs.L("outcome", "rejected")),
			serverErr: reg.Counter("schedserved_requests_total", "", l, obs.L("outcome", "server_error")),
			latencySum: reg.Counter("schedserved_latency_ns_sum",
				"Summed handler latency of successful responses.", l),
			latencyMax: reg.Max("schedserved_latency_ns_max", "Max handler latency of successful responses.", l),
			latency: reg.Histogram("schedserved_request_latency_ns",
				"Handler latency of successful responses.", nil, l),
		}
	}
	for _, name := range sorted {
		o.eps[name] = newEp(name)
	}
	for _, ph := range serverPhases {
		o.phase[ph] = reg.Histogram("schedserved_phase_ns",
			"Per-phase request time from traced spans.", nil, obs.L("phase", ph))
	}

	o.blocksSeen = reg.Counter("schedserved_sched_blocks_seen_total", "Scheduling-pass totals across requests.")
	o.blocksScheduled = reg.Counter("schedserved_sched_blocks_scheduled_total", "")
	o.schedulerRuns = reg.Counter("schedserved_scheduler_runs_total", "")
	o.cacheHits = reg.Counter("schedserved_sched_cache_hits_total", "")
	o.schedNs = reg.Counter("schedserved_sched_time_ns_total", "")

	reg.CounterFunc("schedserved_compile_memo_hits_total", "Compiled-program memo traffic.",
		func() int64 { return s.memo.stats().hits })
	reg.CounterFunc("schedserved_compile_memo_misses_total", "",
		func() int64 { return s.memo.stats().misses })
	reg.CounterFunc("schedserved_compile_memo_evictions_total", "",
		func() int64 { return s.memo.stats().evictions })
	reg.GaugeFunc("schedserved_compile_memo_bytes", "Memo weight: source bytes plus 128 per instruction.",
		func() int64 { return s.memo.stats().bytes })

	caches := make([]*codecache.Cache, 0, len(s.order))
	for _, name := range s.order {
		caches = append(caches, s.targets[name].cache)
	}
	codecache.RegisterMetrics(reg, &s.flight, caches...)
	for _, name := range s.order {
		s.targets[name].cache.RegisterTargetMetrics(reg, name)
	}

	if s.online != nil {
		s.online.RegisterMetrics(reg)
	}

	if s.cfg.Node != "" {
		reg.GaugeFunc("schedserved_node_info", "Instance identity.",
			func() int64 { return 1 }, obs.L("node", s.cfg.Node))
	}
	reg.GaugeFunc("schedserved_draining", "1 while shutdown drain is advertised.", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("schedserved_pool_workers", "Worker-pool gauges.",
		func() int64 { return int64(s.cfg.Workers) })
	reg.GaugeFunc("schedserved_pool_queue_capacity", "",
		func() int64 { return int64(s.cfg.QueueDepth) })
	reg.GaugeFunc("schedserved_pool_queue_depth", "",
		func() int64 { return int64(s.pool.QueueDepth()) })
	reg.GaugeFunc("schedserved_pool_inflight", "",
		func() int64 { return int64(s.pool.Inflight()) })
	reg.GaugeFunc("schedserved_uptime_seconds", "",
		func() int64 { return int64(time.Since(o.start).Seconds()) })

	// The throwaway set lives on a private registry so records against
	// unknown endpoint names never reach the exposition.
	o.throwaway = &epMetrics{
		ok: &obs.Counter{}, clientErr: &obs.Counter{}, rejected: &obs.Counter{},
		serverErr: &obs.Counter{}, latencySum: &obs.Counter{}, latencyMax: &obs.Max{},
		latency: obs.NewRegistry().Histogram("discard_ns", "", nil),
	}
	return o
}

// endpoint returns the named endpoint's handles, or a throwaway set for
// a name that was never registered.
func (o *serverObs) endpoint(name string) *epMetrics {
	if e, ok := o.eps[name]; ok {
		return e
	}
	return o.throwaway
}

// observeSpans records a finished trace's spans into the per-phase
// histograms.
func (o *serverObs) observeSpans(info *obs.TraceInfo) {
	if info == nil {
		return
	}
	for _, sp := range info.Spans {
		if h, ok := o.phase[sp.Phase]; ok {
			h.Observe(sp.Ns)
		}
	}
}
