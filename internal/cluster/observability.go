package cluster

import (
	"encoding/json"
	"time"

	"schedfilter/internal/obs"
)

// gwObs is the gateway's registration on the shared obs registry:
// per-endpoint outcome metrics (the same split as the backend's, minus
// rejected: the gateway has no queue, so a 429 is a client_error),
// request-latency and route-phase histograms, per-member routing
// tallies, the retry/hedge/failover totals, and render-time gauges over
// membership and ring state.
type gwObs struct {
	reg   *obs.Registry
	start time.Time
	eps   *obs.Endpoints
	// routed counts data-plane attempts per member (fixed member set).
	routed map[string]*obs.Counter
	// routePhase is the gateway's own span: time spent routing around the
	// backend's measured total.
	routePhase *obs.Histogram

	hedges         *obs.Counter // hedged duplicates launched
	retries        *obs.Counter // re-attempts after transient failure
	failovers      *obs.Counter // answers served by a non-primary member
	noHealthy      *obs.Counter // requests dropped: zero healthy members
	batchItems     *obs.Counter // items received by /v1/batch
	batchCoalesced *obs.Counter // batch items deduplicated before fan-out
	broadcasts     *obs.Counter // lifecycle broadcasts
}

// newGwObs registers every gateway metric. Call after the member
// registry exists — the health gauges read it live at render time.
func newGwObs(g *Gateway, endpoints ...string) *gwObs {
	reg := obs.NewRegistry()
	o := &gwObs{
		reg:    reg,
		start:  time.Now(),
		eps:    reg.EndpointMetrics("schedgate", "gateway", false, endpoints...),
		routed: make(map[string]*obs.Counter, len(g.order)),
	}
	o.routePhase = reg.Histogram("schedgate_phase_ns",
		"Gateway routing overhead from traced spans.", nil, obs.L("phase", obs.PhaseRoute))

	for _, name := range g.order {
		o.routed[name] = reg.Counter("schedgate_routed_total",
			"Data-plane attempts per member (consistent-hash routing).", obs.L("member", name))
	}

	o.hedges = reg.Counter("schedgate_hedged_requests_total", "Retry, hedge, and failover totals.")
	o.retries = reg.Counter("schedgate_retried_attempts_total", "")
	o.failovers = reg.Counter("schedgate_failovers_total", "")
	o.noHealthy = reg.Counter("schedgate_no_healthy_total", "")
	o.batchItems = reg.Counter("schedgate_batch_items_total", "")
	o.batchCoalesced = reg.Counter("schedgate_batch_coalesced_total", "")
	o.broadcasts = reg.Counter("schedgate_broadcasts_total", "")

	for _, name := range g.order {
		m := g.members[name]
		reg.GaugeFunc("schedgate_member_healthy",
			"Member health as seen by the checker (1 healthy, 0 not).", func() int64 {
				if m.healthy.Load() {
					return 1
				}
				return 0
			}, obs.L("member", name))
	}
	reg.GaugeFunc("schedgate_members", "Configured member count.",
		func() int64 { return int64(len(g.order)) })
	reg.GaugeFunc("schedgate_members_healthy", "Members currently passing health checks.",
		func() int64 { return int64(g.healthyCount()) })
	reg.GaugeFunc("schedgate_draining", "1 while shutdown drain is advertised.", func() int64 {
		if g.Draining() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("schedgate_ring_replicas", "Virtual nodes per member on the hash ring.",
		func() int64 { return int64(g.cfg.Replicas) })
	reg.GaugeFunc("schedgate_uptime_seconds", "",
		func() int64 { return int64(time.Since(o.start).Seconds()) })

	return o
}

func (o *gwObs) routedTo(member string) {
	if c, ok := o.routed[member]; ok {
		c.Inc()
	}
}

func (o *gwObs) routedSnapshot() map[string]int64 {
	out := make(map[string]int64, len(o.routed))
	for name, c := range o.routed {
		out[name] = c.Value()
	}
	return out
}

// injectRouteSpan rewrites a relayed 2xx body's trace: the gateway owns
// the request total now, so TotalNs becomes the gateway-measured
// elapsed time and a route span accounts for the difference between it
// and the backend's measured total (routing, queueing for a backend
// connection, retries, hedging, relay encode). Every other field passes
// through verbatim via raw messages — the same idiom as injectPolicy.
// Returns the body unchanged on any shape surprise: relaying the
// backend's answer always wins over decorating it.
func (o *gwObs) injectRouteSpan(body []byte, traceID string, totalNs int64) []byte {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil || fields == nil {
		return body
	}
	var info obs.TraceInfo
	if raw, ok := fields["trace"]; ok {
		if err := json.Unmarshal(raw, &info); err != nil {
			return body
		}
	}
	routeNs := totalNs - info.TotalNs
	if routeNs < 0 {
		routeNs = 0
	}
	info.ID = traceID
	info.Spans = append([]obs.Span{{Phase: obs.PhaseRoute, Ns: routeNs}}, info.Spans...)
	info.TotalNs = totalNs
	o.routePhase.Observe(routeNs)
	raw, err := json.Marshal(&info)
	if err != nil {
		return body
	}
	fields["trace"] = raw
	out, err := json.Marshal(fields)
	if err != nil {
		return body
	}
	return out
}
