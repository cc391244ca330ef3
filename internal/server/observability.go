package server

import (
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/obs"
)

// serverObs is the server's registration on the shared obs registry:
// per-endpoint outcome metrics, per-phase histograms, the
// scheduling-pass totals, and render-time gauges over the caches,
// admission gate, and online loop. Handles are resolved here, once, so
// the request path records through atomics only.
type serverObs struct {
	reg   *obs.Registry
	start time.Time
	eps   *obs.Endpoints
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
}

// serverPhases are the span names this layer can observe (route is the
// gateway's).
var serverPhases = []string{
	obs.PhaseQueueWait, obs.PhaseCompile, obs.PhaseFingerprint, obs.PhaseCacheLookup,
	obs.PhaseDAGBuild, obs.PhaseListSchedule, obs.PhaseEstimator, obs.PhaseSim,
}

// newServerObs registers every server metric. Call after the server's
// targets, admission gate, flight, and online loop exist — the gauges
// read them live at render time. The historical metric names (schedserved_*,
// codecache_*, online_*) are locked byte-for-byte by the compat test.
func newServerObs(s *Server, endpoints ...string) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:   reg,
		start: time.Now(),
		eps:   reg.EndpointMetrics("schedserved", "handler", true, endpoints...),
		phase: make(map[string]*obs.Histogram, len(serverPhases)),
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
		if s.Draining() {
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

	return o
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
