// Command schedserved is the compile-server daemon: scheduling-as-a-service
// over HTTP/JSON. It boots a policy (by default the induced filter from a
// persisted model file, or the embedded factory model trained at t=20 over
// all bundled benchmarks),
// then serves compile / schedule / predict / execute requests behind a
// bounded admission gate with a shared content-addressed scheduled-block
// cache.
//
// Usage:
//
//	schedserved [-addr :8723] [-node NAME] [-model rules.txt] [-policy factory]
//	            [-workers N] [-queue N] [-cache WORDS] [-drain 10s]
//	            [-target mpc7410] [-log-level info]
//	            [-online] [-retrain-every 0] [-spill DIR]
//	            [-online-threshold 20] [-online-min 64] [-online-samples 4096]
//
// The -policy flag selects the default scheduling policy applied when a
// request does not name one: "factory" (the loaded model, the default) or
// any policy spec — always/LS, never/NS, size:N, cost:N,
// portfolio:spec+spec, rules:FILE. Model files are produced by
// schedtrain -o or policy.FormatInduced.
//
// -online enables the online-learning loop: live traffic feeds per-target
// sample reservoirs, POST /v1/retrain (or the -retrain-every ticker, when
// non-zero) re-induces the filter with Ripper, candidates are shadow-gated
// against the incumbent on a held-out slice, and promotions hot-swap the
// default serving filter atomically. GET /v1/filters lists every version;
// POST /v1/filters/{v}/activate and /v1/filters/rollback steer it by hand.
// -spill persists reservoirs across restarts as JSONL under DIR.
//
// The -node flag names the instance for cluster deployments behind
// schedgate: the name comes back on /healthz and as the X-Sched-Node
// response header, which is how the gateway and loadgen attribute
// traffic to nodes. It defaults to the listen address.
//
// The -target flag picks the default machine target for requests that do
// not name one; every registered target is servable per-request either
// way, each with its own scheduled-block cache. Booting a model that was
// trained for a different target than the default prints a warning but
// proceeds — block features are target-independent, the filter is just
// being applied to a machine it was not tuned for.
//
// Observability: GET /metrics (Prometheus text format, including
// per-phase latency histograms), GET /healthz, /debug/pprof, and
// structured log/slog text lines on stderr (-log-level sets the floor).
// Shutdown on SIGINT/SIGTERM is graceful: the listener closes, in-flight
// compilations drain (bounded by -drain), then the admission gate closes.
package main

import (
	"context"
	_ "embed"
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
	"schedfilter/internal/machine"
	"schedfilter/internal/online"
	"schedfilter/internal/policy"
	"schedfilter/internal/server"
)

// logger is the daemon's structured stderr logger, set once in main;
// fatal falls back to a bare print before it exists.
var logger *slog.Logger

// factoryModel is the "at the factory" filter a JIT would ship: L/N
// induced at t=20 from every bundled benchmark (schedtrain -suite all
// -t 20 -o cmd/schedserved/factory_model.txt).
//
//go:embed factory_model.txt
var factoryModel string

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	node := flag.String("node", "", "this instance's cluster node name, reported on /healthz and X-Sched-Node (default: the listen address)")
	modelPath := flag.String("model", "", "model file to boot the induced filter from (default: embedded factory model)")
	workers := flag.Int("workers", 0, "compilations that run at once (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers); overflow is rejected with 429")
	cacheWeight := flag.Int("cache", 0, "scheduled-block cache bound in words (0 = default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	target := cliflags.TargetDefault(flag.CommandLine, machine.DefaultTargetName, "default machine target for requests that don't name one")
	policySpec := cliflags.Policy(flag.CommandLine, "factory",
		"default scheduling policy (\"factory\" = the loaded model): "+cliflags.PolicySyntax)
	onlineFlag := flag.Bool("online", false, "enable the online-learning loop (live sampling, retraining, filter hot-swap)")
	retrainEvery := flag.Duration("retrain-every", 0, "online: background retraining interval (0 = retrain only on POST /v1/retrain)")
	spill := flag.String("spill", "", "online: directory for JSONL reservoir spill/restore (empty = in-memory only)")
	onlineT := flag.Int("online-threshold", 20, "online: threshold-t labelling percentage")
	onlineMin := flag.Int("online-min", 64, "online: minimum training samples before a candidate is induced")
	onlineCap := flag.Int("online-samples", 0, "online: per-target sample reservoir capacity (0 = default)")
	logLevel := cliflags.LogLevel(flag.CommandLine)
	flag.Parse()

	l, err := cliflags.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fatal(err)
	}
	logger = l

	if _, err := machine.ByName(*target); err != nil {
		fatal(err)
	}
	induced, err := loadModel(*modelPath, *target)
	if err != nil {
		fatal(err)
	}
	pol, err := pickPolicy(*policySpec, *target, induced)
	if err != nil {
		fatal(err)
	}

	if *node == "" {
		*node = *addr
	}
	s := server.New(server.Config{
		Node:        *node,
		Filter:      pol,
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheWeight: *cacheWeight,
		Target:      *target,
		Online:      *onlineFlag,
		OnlineOpts: online.Config{
			Interval:   *retrainEvery,
			SpillDir:   *spill,
			Threshold:  *onlineT,
			MinSamples: *onlineMin,
			SampleCap:  *onlineCap,
		},
	})
	mode := "static filter"
	if *onlineFlag {
		mode = "online learning on"
	}
	logger.Info("listening",
		"addr", *addr, "node", *node, "target", *target,
		"policy", pol.Name(), "model_rules", len(induced.Rules.Rules), "mode", mode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx, *addr, *drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Info("drained, bye")
}

func loadModel(path, target string) (*policy.Induced, error) {
	if path == "" {
		f, err := policy.ParseInduced(factoryModel)
		if err != nil {
			return nil, fmt.Errorf("embedded factory model: %w", err)
		}
		if f.Target != "" && f.Target != target {
			logger.Warn("factory model trained for a different target",
				"trained_for", f.Target, "default_target", target)
		}
		return f, nil
	}
	return policy.LoadInducedFor(path, target)
}

// pickPolicy resolves the default serving policy: "factory" (or
// "ripper") selects the loaded model, everything else goes through the
// shared policy-spec resolver (always/LS, never/NS, size:N, cost:N,
// portfolio:..., rules:FILE).
func pickPolicy(name, target string, induced *policy.Induced) (policy.Policy, error) {
	if strings.EqualFold(name, "factory") || strings.EqualFold(name, "ripper") {
		return induced, nil
	}
	f, err := cliflags.ResolvePolicy(name, target)
	if err != nil {
		return nil, fmt.Errorf("bad policy %q: %w (want factory or %s)", name, err, cliflags.PolicySyntax)
	}
	return f, nil
}

func fatal(err error) {
	if logger != nil {
		logger.Error("fatal", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "schedserved:", err)
	}
	os.Exit(1)
}
