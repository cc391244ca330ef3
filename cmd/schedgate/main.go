// Command schedgate is the cluster gateway: it fronts N schedserved
// backends and makes them look like one compile service.
//
// Usage:
//
//	schedgate -backends a=http://127.0.0.1:8723,b=http://127.0.0.1:8733
//	          [-addr :8724] [-check-every 250ms] [-timeout 60s]
//	          [-retries 2] [-hedge-after 300ms] [-replicas 128]
//	          [-drain 10s] [-j N] [-policy spec] [-log-level info]
//
// Compile-path requests (/v1/compile, /v1/schedule, /v1/predict,
// /v1/execute) are routed by consistent hashing on the request's program
// content, so repeat compilations of the same program land on the node
// whose scheduled-block cache already holds its blocks. Failures fail
// over down the key's preference order with bounded retries and
// exponential backoff, and a hedged duplicate goes to the next node when
// the primary exceeds -hedge-after. POST /v1/batch fans a list of
// programs across the shards in one call.
//
// The routing key includes the request's policy identity, so repeat
// compilations under the same policy stay co-located with their cache
// entries. -policy sets a cluster-wide default scheduling policy spec
// (always|ls, never|ns, size:N, cost:N, portfolio:spec+spec): requests
// that name neither a policy nor a filter are rewritten to carry it, so
// every backend serves the same default no matter how it was booted;
// pinned requests pass through untouched.
//
// Filter-lifecycle operations (/v1/retrain, /v1/filters/{v}/activate,
// /v1/filters/rollback) broadcast to every healthy backend, and GET
// /v1/policies and /v1/filters fan out to every node; GET /v1/cluster
// reports per-node health and filter versions plus a per-target
// convergence verdict. GET /healthz and GET /metrics (schedgate_*
// series) cover the gateway itself.
//
// Backends are polled every -check-every; a node answering anything but
// 200 "ok" (including 503 "draining" during its graceful shutdown)
// leaves the rotation until it recovers. Shutdown on SIGINT/SIGTERM is
// graceful in the same LB-friendly order as schedserved: /healthz flips
// to 503 first, then the listener closes and in-flight proxies drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"schedfilter/internal/cliflags"
	"schedfilter/internal/cluster"
)

// logger is the daemon's structured stderr logger, set once in main;
// fatal falls back to a bare print before it exists.
var logger *slog.Logger

func main() {
	addr := flag.String("addr", ":8724", "listen address")
	backends := flag.String("backends", "", "comma-separated backends, each [name=]http://host:port (required)")
	checkEvery := flag.Duration("check-every", 250*time.Millisecond, "backend health-poll interval")
	timeout := flag.Duration("timeout", 60*time.Second, "per-attempt timeout for proxied requests")
	retries := flag.Int("retries", 2, "re-attempts after a transient failure (walks the failover order)")
	hedgeAfter := flag.Duration("hedge-after", 300*time.Millisecond, "latency budget before a hedged duplicate goes to the next node (<0 disables)")
	replicas := flag.Int("replicas", 0, "virtual nodes per member on the hash ring (0 = 128)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	jobs := flag.Int("j", 0, "batch/broadcast fan-out width (0 = GOMAXPROCS)")
	policySpec := cliflags.Policy(flag.CommandLine, "",
		"cluster-wide default policy spec injected into requests that pin neither a policy nor a filter: always|ls, never|ns, size:N, cost:N, portfolio:spec+spec")
	logLevel := cliflags.LogLevel(flag.CommandLine)
	flag.Parse()

	l, err := cliflags.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fatal(err)
	}
	logger = l

	// The spec travels to the backends, which resolve it against their
	// own registries — so rules:FILE (a gateway-local path) is out, and
	// the rest is validated here so a typo fails at boot, not at the
	// first request.
	if strings.HasPrefix(*policySpec, "rules:") {
		fatal(fmt.Errorf("bad -policy: rules:FILE is backend-local; name a spec the backends can resolve"))
	}
	if _, err := cliflags.ResolvePolicy(*policySpec, ""); err != nil {
		fatal(fmt.Errorf("bad -policy: %w", err))
	}

	members, err := cluster.ParseMembers(*backends)
	if err != nil {
		fatal(err)
	}
	g, err := cluster.New(cluster.Config{
		Members:       members,
		Replicas:      *replicas,
		CheckInterval: *checkEvery,
		Timeout:       *timeout,
		Retries:       *retries,
		HedgeAfter:    *hedgeAfter,
		Jobs:          *jobs,
		DefaultPolicy: *policySpec,
	})
	if err != nil {
		fatal(err)
	}
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	logger.Info("listening",
		"addr", *addr, "backends", len(members), "members", strings.Join(names, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := g.ListenAndServe(ctx, *addr, *drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Info("drained, bye")
}

func fatal(err error) {
	if logger != nil {
		logger.Error("fatal", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "schedgate:", err)
	}
	os.Exit(1)
}
