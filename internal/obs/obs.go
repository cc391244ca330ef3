// Package obs is the repo's observability core: one typed metrics
// registry shared by every layer, request tracing with per-phase span
// timings, and a leveled structured logger. It is stdlib-only and has no
// dependency on any other internal package, so every subsystem — the
// scheduler hot path's phase accounting, the compile server, the cluster
// gateway, the codecache, the online-learning loop — can register
// through it without import cycles.
//
// The three pieces:
//
//   - Registry (registry.go, histogram.go): counters, gauges, max
//     trackers, and fixed-bucket latency histograms with p50/p90/p99
//     snapshots. Handles are resolved at registration time, so the
//     record path is atomic and allocation-free. One renderer emits the
//     whole registry in Prometheus text exposition format; metric and
//     label names are validated (snake_case, no duplicate series) at
//     registration, which is what keeps the historical schedserved_*,
//     schedgate_*, codecache_*, and online_* names stable byte for byte.
//     EndpointMetrics (endpoint.go) registers the per-endpoint outcome
//     families both daemons share, and a Registry serves itself as the
//     /metrics handler.
//
//   - Tracing (trace.go): a trace ID minted at the edge (gateway or
//     server), propagated via the X-Sched-Trace header and
//     context.Context, carrying per-phase spans (route, queue_wait,
//     compile, cache_lookup, dag_build, list_schedule, estimator, sim).
//     The spans come back in compile responses and feed the per-phase
//     histograms.
//
//   - Logger (logger.go): leveled key=value lines replacing ad-hoc
//     prints in the daemons.
//
// parse.go is the client side: a text-exposition parser plus histogram
// reconstruction, used by schedctl's pretty-printer and the compat
// tests.
package obs
