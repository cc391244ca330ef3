package obs

import (
	"net/http"
	"sort"
	"strings"
	"time"
)

// Endpoint is one served endpoint's outcome counters plus the latency of
// its successful responses. Record is atomic and allocation-free.
type Endpoint struct {
	ok        *Counter // 2xx
	clientErr *Counter // 4xx (429 too when rejected is nil)
	rejected  *Counter // 429 (queue full); nil when the daemon has no queue
	serverErr *Counter // 5xx
	// Successful-response latency: the historical sum/max lines plus the
	// histogram percentiles feed on.
	latencySum *Counter
	latencyMax *Max
	latency    *Histogram
}

// Record tallies one response by status.
func (e *Endpoint) Record(status int, elapsed time.Duration) {
	switch {
	case status == http.StatusTooManyRequests && e.rejected != nil:
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

// Endpoints is a daemon's per-endpoint outcome metrics, resolved once at
// registration so the request path records through atomics only.
type Endpoints struct {
	eps map[string]*Endpoint
	// discard absorbs records against names never registered; it lives
	// on no registry, so they never reach the exposition.
	discard *Endpoint
}

// EndpointMetrics registers the outcome families of the named endpoints,
// in sorted name order:
//
//	<prefix>_requests_total{endpoint,outcome}  ok, client_error, [rejected,] server_error
//	<prefix>_latency_ns_sum{endpoint}          successful responses only,
//	<prefix>_latency_ns_max{endpoint}          likewise
//	<prefix>_request_latency_ns{endpoint}      histogram, likewise
//
// withRejected adds the rejected outcome for a daemon whose 429 means a
// full admission queue; without it a 429 counts as client_error. who
// names the measured latency in the help text ("handler", "gateway").
func (r *Registry) EndpointMetrics(prefix, who string, withRejected bool, names ...string) *Endpoints {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	e := &Endpoints{eps: make(map[string]*Endpoint, len(sorted))}
	for _, name := range sorted {
		l := L("endpoint", name)
		ep := &Endpoint{
			ok:        r.Counter(prefix+"_requests_total", "Requests by endpoint and outcome.", l, L("outcome", "ok")),
			clientErr: r.Counter(prefix+"_requests_total", "", l, L("outcome", "client_error")),
		}
		if withRejected {
			ep.rejected = r.Counter(prefix+"_requests_total", "", l, L("outcome", "rejected"))
		}
		ep.serverErr = r.Counter(prefix+"_requests_total", "", l, L("outcome", "server_error"))
		ep.latencySum = r.Counter(prefix+"_latency_ns_sum", "Summed "+who+" latency of successful responses.", l)
		ep.latencyMax = r.Max(prefix+"_latency_ns_max", "Max "+who+" latency of successful responses.", l)
		ep.latency = r.Histogram(prefix+"_request_latency_ns",
			strings.ToUpper(who[:1])+who[1:]+" latency of successful responses.", nil, l)
		e.eps[name] = ep
	}
	e.discard = &Endpoint{
		ok: &Counter{}, clientErr: &Counter{}, rejected: &Counter{}, serverErr: &Counter{},
		latencySum: &Counter{}, latencyMax: &Max{}, latency: newHistogram(defLatencyBuckets),
	}
	return e
}

// Get returns the named endpoint's metrics, or the discard set for a
// name that was never registered.
func (e *Endpoints) Get(name string) *Endpoint {
	if ep, ok := e.eps[name]; ok {
		return ep
	}
	return e.discard
}

// ServeHTTP serves the registry as a /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.Render(w)
}
