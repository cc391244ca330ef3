// Command schedctl is the compile-server client: one-shot requests
// against a running schedserved, plus a load-generator mode that checks
// outcomes and cache effectiveness under concurrent traffic.
//
// Usage:
//
//	schedctl [-addr http://127.0.0.1:8723] [-timeout 120s] [-retries 2] <command> [flags]
//
// Commands:
//
//	compile   -src FILE | -workload NAME [-listing] [-target T]
//	schedule  -src FILE | -workload NAME [-policy P] [-no-cache] [-target T]
//	predict   -src FILE | -workload NAME [-policy P] [-detail] [-target T]
//	execute   -src FILE | -workload NAME [-policy P] [-untimed] [-target T]
//	health
//	metrics   [-raw]
//	trace     -src FILE | -workload NAME [-op schedule] [-id ID] [-policy P] [-target T]
//	cluster
//	filters   list | activate -v N [-target T] | rollback [-target T]
//	policies  list
//	retrain   [-target T]
//	loadgen   [-workload NAME] [-src FILE] [-policy P] [-target T] [-n 200] [-c 8]
//
// Requests go through the shared retrying client (internal/httpc):
// -timeout bounds one attempt, -retries re-attempts transient failures
// (transport errors, 429, 5xx) with exponential backoff and jitter.
// -addr may point at a single schedserved or at a schedgate cluster
// gateway — the compile-path commands are identical either way.
//
// Policies: always|ls, never|ns, size:N, cost:N, portfolio:spec+spec
// (see schedctl policies list for the server's registered kinds); an
// empty -policy means the server's default.
// Targets: registered machine names (schedctl health lists them); empty
// means the server's default.
//
// The policies command asks the server (or every node behind a gateway)
// for GET /v1/policies: the registered policy kinds plus each servable
// target's active policy with kind, content identity, and provenance.
//
// The filters and retrain commands drive the server's online-learning
// loop (schedserved -online): retrain runs one labelling + induction +
// shadow-gate round now, filters list shows every registered version
// with provenance and gate verdicts, activate hot-swaps a specific
// version in, and rollback reverts to the previously active one.
//
// The metrics command renders the service's /metrics exposition as a
// readable report — per-endpoint outcome counts with latency
// percentiles, plus the per-phase timing breakdown recorded from traced
// requests; -raw dumps the Prometheus text unformatted. The trace
// command sends one request with an X-Sched-Trace ID and prints where
// its time went, span by span (through a gateway the breakdown includes
// the routing overhead).
//
// The cluster command asks a schedgate for GET /v1/cluster and prints
// per-member health and filter versions plus the per-target convergence
// verdict after a broadcast retrain/activate.
//
// loadgen fires n identical schedule requests at concurrency c and
// reports how many succeeded plus the server-side cache hit rate and
// list-scheduler run count deltas scraped from /metrics — on a repeated
// workload the hit rate should be ≥ 90% and scheduler runs should stop
// growing after the first request. It measures no time: throughput and
// latency come from bench/. It also tallies which
// policy version served each response, so a retrain-under-load run shows
// the traffic mix flip from the old version to the new one, and which
// node answered (the X-Sched-Node header), so a run against a gateway
// shows the routing mix — including a node dying mid-run with zero
// failed requests.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"schedfilter/internal/cliflags"
	"schedfilter/internal/cluster"
	"schedfilter/internal/httpc"
	"schedfilter/internal/obs"
	"schedfilter/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8723", "schedserved (or schedgate) base URL")
	timeout := flag.Duration("timeout", httpc.DefaultTimeout, "per-attempt request timeout")
	retries := flag.Int("retries", 2, "re-attempts after a transient failure (transport error, 429, 5xx)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	c := &client{Client: httpc.New(*addr, *timeout, *retries)}
	var err error
	switch cmd {
	case "compile", "schedule", "predict", "execute":
		err = runRequest(c, cmd, args)
	case "health":
		err = c.getText("/healthz", os.Stdout)
	case "metrics":
		err = runMetrics(c, args)
	case "trace":
		err = runTrace(c, args)
	case "cluster":
		err = runCluster(c)
	case "filters":
		err = runFilters(c, args)
	case "policies":
		err = runPolicies(c, args)
	case "retrain":
		err = runRetrain(c, args)
	case "loadgen":
		err = runLoadgen(c, args, os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "schedctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: schedctl [-addr URL] [-timeout D] [-retries N] {compile|schedule|predict|execute|health|metrics|trace|cluster|filters|policies|retrain|loadgen} [flags]")
}

// client wraps the shared retrying HTTP client with the error shaping
// the CLI wants: non-2xx answers become errors carrying the service's
// error body.
type client struct {
	*httpc.Client
}

// post sends one JSON request; the returned response is always 2xx.
func (c *client) post(path string, req any) (*httpc.Response, error) {
	r, err := c.PostJSON(path, req)
	if err != nil {
		return nil, err
	}
	if err := r.Err(path); err != nil {
		return nil, err
	}
	return r, nil
}

func (c *client) getText(path string, w io.Writer) error {
	r, err := c.Get(path)
	if err != nil {
		return err
	}
	if r.Status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, r.Status)
	}
	_, err = w.Write(r.Body)
	return err
}

// inputFlags registers the program-input and policy flags shared by
// every compiler command.
func inputFlags(fs *flag.FlagSet) (src, workload, policy, target *string) {
	src = fs.String("src", "", "Jolt source file")
	workload = fs.String("workload", "", "bundled benchmark name (alternative to -src)")
	policy = cliflags.Policy(fs, "", "scheduling policy spec (empty = server default): always|ls, never|ns, size:N, cost:N, portfolio:spec+spec")
	target = cliflags.TargetDefault(fs, "", "machine target (empty = server default; unknown names are rejected)")
	return
}

func makeInput(src, workload, target string) (server.ProgramInput, error) {
	in := server.ProgramInput{Target: target}
	switch {
	case src != "" && workload != "":
		return in, fmt.Errorf("-src and -workload are mutually exclusive")
	case src != "":
		buf, err := os.ReadFile(src)
		if err != nil {
			return in, err
		}
		in.Source = string(buf)
	case workload != "":
		in.Workload = workload
	default:
		return in, fmt.Errorf("need -src or -workload")
	}
	return in, nil
}

func runRequest(c *client, cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	src, workload, policySpec, target := inputFlags(fs)
	listing := fs.Bool("listing", false, "compile: include the machine-code listing")
	noCache := fs.Bool("no-cache", false, "schedule: bypass the scheduled-block cache")
	detail := fs.Bool("detail", false, "predict: per-block decisions")
	untimed := fs.Bool("untimed", false, "execute: skip the cycle pipeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := makeInput(*src, *workload, *target)
	if err != nil {
		return err
	}
	in.Policy = *policySpec
	var req any
	switch cmd {
	case "compile":
		req = server.CompileRequest{ProgramInput: in, Listing: *listing}
	case "schedule":
		req = server.ScheduleRequest{ProgramInput: in, NoCache: *noCache}
	case "predict":
		req = server.PredictRequest{ProgramInput: in, Detail: *detail}
	case "execute":
		req = server.ExecuteRequest{ProgramInput: in, Untimed: *untimed}
	}
	r, err := c.post("/v1/"+cmd, req)
	if err != nil {
		return err
	}
	if node := r.Header.Get("X-Sched-Node"); node != "" {
		fmt.Fprintf(os.Stderr, "schedctl: served by node %s\n", node)
	}
	return printJSON(r.Body)
}

// printJSON prints a reply body indented, so the output reads the same
// whether a server or the gateway answered; a body that is not JSON is
// printed as it came.
func printJSON(body []byte) error {
	var buf bytes.Buffer
	if json.Indent(&buf, body, "", "  ") == nil {
		body = buf.Bytes()
	}
	_, err := os.Stdout.Write(body)
	return err
}

// runCluster prints a schedgate's membership and convergence report.
func runCluster(c *client) error {
	r, err := c.Get("/v1/cluster")
	if err != nil {
		return err
	}
	var resp cluster.ClusterResponse
	if err := r.Decode("/v1/cluster", &resp); err != nil {
		return err
	}
	fmt.Printf("cluster: %d/%d members healthy, ring replicas %d\n",
		resp.Healthy, resp.Total, resp.Replicas)
	for _, m := range resp.Members {
		if !m.Healthy {
			fmt.Printf("  %-12s %-28s UNHEALTHY: %s\n", m.Name, m.URL, m.Error)
			continue
		}
		state := "static"
		if m.Online {
			state = fmt.Sprintf("online v%d", m.FilterVersion)
		}
		fmt.Printf("  %-12s %-28s healthy (%s, target %s, policy %q)\n",
			m.Name, m.URL, state, m.Target, m.Policy)
	}
	for _, tc := range resp.Convergence {
		verdict := "NOT converged"
		if tc.Converged {
			verdict = "converged"
			if tc.HashConverged {
				verdict = "converged (versions and rule hashes)"
			}
		}
		nodes := make([]string, 0, len(tc.Versions))
		for n := range tc.Versions {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		parts := make([]string, len(nodes))
		for i, n := range nodes {
			parts[i] = fmt.Sprintf("%s=v%d", n, tc.Versions[n])
		}
		fmt.Printf("  target %s: %s — %s\n", tc.Target, verdict, strings.Join(parts, " "))
	}
	return nil
}

// runFilters drives the online filter registry: list, activate, rollback.
func runFilters(c *client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: schedctl filters {list|activate -v N [-target T]|rollback [-target T]}")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		return c.getJSONFilters()
	case "activate":
		fs := flag.NewFlagSet("filters activate", flag.ExitOnError)
		v := fs.Int("v", 0, "filter version to activate")
		target := fs.String("target", "", "machine target (empty = server default)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *v < 1 {
			return fmt.Errorf("filters activate: need -v N (a positive version number)")
		}
		r, err := c.post(fmt.Sprintf("/v1/filters/%d/activate", *v),
			server.FilterActionRequest{Target: *target})
		if err != nil {
			return err
		}
		return printAction("activated", r.Body)
	case "rollback":
		fs := flag.NewFlagSet("filters rollback", flag.ExitOnError)
		target := fs.String("target", "", "machine target (empty = server default)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		r, err := c.post("/v1/filters/rollback", server.FilterActionRequest{Target: *target})
		if err != nil {
			return err
		}
		return printAction("rolled back to", r.Body)
	default:
		return fmt.Errorf("filters: unknown subcommand %q (want list, activate, or rollback)", sub)
	}
}

// runPolicies drives the policy layer: list shows the registered
// policy kinds and each target's active policy.
func runPolicies(c *client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: schedctl policies list")
	}
	sub := args[0]
	switch sub {
	case "list":
		return c.getJSONPolicies()
	default:
		return fmt.Errorf("policies: unknown subcommand %q (want list)", sub)
	}
}

// getJSONPolicies fetches and pretty-prints GET /v1/policies — either a
// single node's view or, from a gateway, every node's side by side.
func (c *client) getJSONPolicies() error {
	var buf bytes.Buffer
	if err := c.getText("/v1/policies", &buf); err != nil {
		return err
	}
	var bc cluster.BroadcastResponse
	if json.Unmarshal(buf.Bytes(), &bc) == nil && bc.Op == "policies" && len(bc.Nodes) > 0 {
		for _, n := range bc.Nodes {
			if n.Error != "" {
				fmt.Printf("node %s: HTTP %d: %s\n", n.Node, n.Status, n.Error)
				continue
			}
			var pr server.PoliciesResponse
			if json.Unmarshal(n.Response, &pr) == nil {
				fmt.Printf("node %s:\n", n.Node)
				printPolicies("  ", pr)
			}
		}
		return nil
	}
	var resp server.PoliciesResponse
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		// Not JSON (or an error body): show it raw.
		_, werr := os.Stdout.Write(buf.Bytes())
		return werr
	}
	printPolicies("", resp)
	return nil
}

func printPolicies(indent string, resp server.PoliciesResponse) {
	if len(resp.Kinds) > 0 {
		fmt.Printf("%skinds:\n", indent)
		for _, k := range resp.Kinds {
			fmt.Printf("%s  %-10s %s\n", indent, k.Name, k.Description)
		}
	}
	for _, p := range resp.Active {
		fmt.Printf("%starget %s: %s (kind %s, id %s", indent, p.Target, p.Name, p.Kind, p.ID)
		if p.TrainedFor != "" && p.TrainedFor != p.Target {
			fmt.Printf(", trained for %s", p.TrainedFor)
		}
		if p.Version > 0 {
			fmt.Printf(", v%d", p.Version)
		}
		fmt.Println(")")
	}
}

// getJSONFilters fetches and pretty-prints GET /v1/filters — either a
// single node's registry or, from a gateway, every node's side by side.
func (c *client) getJSONFilters() error {
	var buf bytes.Buffer
	if err := c.getText("/v1/filters", &buf); err != nil {
		return err
	}
	var bc cluster.BroadcastResponse
	if json.Unmarshal(buf.Bytes(), &bc) == nil && bc.Op == "filters" && len(bc.Nodes) > 0 {
		for _, n := range bc.Nodes {
			if n.Error != "" {
				fmt.Printf("node %s: HTTP %d: %s\n", n.Node, n.Status, n.Error)
				continue
			}
			var fr server.FiltersResponse
			if json.Unmarshal(n.Response, &fr) == nil {
				fmt.Printf("node %s:\n", n.Node)
				printFilters("  ", fr)
			}
		}
		return nil
	}
	var resp server.FiltersResponse
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		// Not JSON (or an error body): show it raw.
		_, werr := os.Stdout.Write(buf.Bytes())
		return werr
	}
	printFilters("", resp)
	return nil
}

func printFilters(indent string, resp server.FiltersResponse) {
	for _, ts := range resp.Targets {
		fmt.Printf("%starget %s: active v%d, %d versions, reservoir %d samples\n",
			indent, ts.Target, ts.ActiveVersion, len(ts.Versions), ts.Reservoir)
		for _, v := range ts.Versions {
			fmt.Printf("%s  v%-3d %-11s %-24q hash=%s", indent, v.Version, v.State, v.Label, v.RuleHash)
			if v.Samples > 0 {
				fmt.Printf(" samples=%d/%d", v.Samples, v.HoldoutSamples)
			}
			if v.Reason != "" {
				fmt.Printf("  %s", v.Reason)
			}
			fmt.Println()
		}
	}
}

func printAction(verb string, body []byte) error {
	if printBroadcast(body) {
		return nil
	}
	var resp server.FilterActionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		_, werr := os.Stdout.Write(body)
		return werr
	}
	fmt.Printf("%s: %s v%d (%s, hash %s)\n", resp.Target, verb, resp.Version.Version,
		resp.Version.Label, resp.Version.RuleHash)
	return nil
}

// printBroadcast recognises a schedgate broadcast body (retrain,
// activate, rollback fanned across the cluster) and prints the per-node
// outcomes plus the convergence verdict. Returns false for single-node
// response shapes.
func printBroadcast(body []byte) bool {
	var bc cluster.BroadcastResponse
	if json.Unmarshal(body, &bc) != nil || bc.Op == "" || len(bc.Nodes) == 0 {
		return false
	}
	fmt.Printf("cluster %s: %d ok, %d failed\n", bc.Op, bc.OK, bc.Failed)
	for _, n := range bc.Nodes {
		if n.Error != "" {
			fmt.Printf("  %-12s HTTP %d: %s\n", n.Node, n.Status, n.Error)
		} else {
			fmt.Printf("  %-12s ok\n", n.Node)
		}
	}
	for _, tc := range bc.Convergence {
		verdict := "NOT converged"
		if tc.Converged {
			verdict = "converged"
		}
		fmt.Printf("  target %s: %s\n", tc.Target, verdict)
	}
	return true
}

// runRetrain triggers one retraining round and reports the outcome.
func runRetrain(c *client, args []string) error {
	fs := flag.NewFlagSet("retrain", flag.ExitOnError)
	target := fs.String("target", "", "machine target (empty = every managed target)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, err := c.post("/v1/retrain", server.RetrainRequest{Target: *target})
	if err != nil {
		return err
	}
	if printBroadcast(r.Body) {
		return nil
	}
	var resp server.RetrainResponse
	if err := json.Unmarshal(r.Body, &resp); err != nil {
		_, werr := os.Stdout.Write(r.Body)
		return werr
	}
	for _, rep := range resp.Reports {
		verdict := "rejected"
		if rep.Promoted {
			verdict = "PROMOTED"
		}
		if rep.Version == 0 {
			verdict = "skipped"
		}
		fmt.Printf("%s: %s — %s (serving v%d, train=%d holdout=%d LS=%d NS=%d)\n",
			rep.Target, verdict, rep.Reason, rep.ActiveVersion,
			rep.Samples, rep.Holdout, rep.LSLabels, rep.NSLabels)
		if rep.Candidate != nil && rep.Incumbent != nil {
			fmt.Printf("%s:   candidate cycles=%d sched=%d vs incumbent cycles=%d sched=%d\n",
				rep.Target, rep.Candidate.EstCycles, rep.Candidate.SchedCost,
				rep.Incumbent.EstCycles, rep.Incumbent.SchedCost)
		}
	}
	return nil
}

// scrape reads the service's metrics. hasCache reports whether the
// exposition carries the backend's codecache series — a schedgate's
// /metrics does not (its backends each have their own), so loadgen
// skips the cache report when pointed at a gateway.
func (c *client) scrape() (vals map[string]int64, hasCache bool, err error) {
	var buf bytes.Buffer
	if err := c.getText("/metrics", &buf); err != nil {
		return nil, false, err
	}
	e, err := obs.ParseExposition(buf.String())
	if err != nil {
		return nil, false, err
	}
	out := map[string]int64{}
	for _, name := range []string{
		"codecache_hits_total", "codecache_misses_total", "schedserved_scheduler_runs_total",
	} {
		v, _ := e.Value(name, nil)
		out[name] = int64(v)
	}
	_, hasCache = e.Types["schedserved_scheduler_runs_total"]
	return out, hasCache, nil
}

// runLoadgen fires n identical schedule requests at concurrency c and
// reports outcomes only: ok and failed counts, the server-side cache and
// scheduler-run deltas, and the policy-version and node mixes. Timing is
// bench/'s job.
func runLoadgen(c *client, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	src, workload, policySpec, target := inputFlags(fs)
	n := fs.Int("n", 200, "total requests")
	conc := fs.Int("c", 8, "concurrent clients")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *src == "" && *workload == "" {
		*workload = "compress"
	}
	in, err := makeInput(*src, *workload, *target)
	if err != nil {
		return err
	}
	in.Policy = *policySpec
	req := server.ScheduleRequest{ProgramInput: in}

	before, hasCache, err := c.scrape()
	if err != nil {
		return err
	}

	var (
		failures atomic.Int64
		next     atomic.Int64
		wg       sync.WaitGroup
		// versionMix tallies which policy version served each response —
		// under retrain-under-load the mix flips from the old version to
		// the new one mid-run. nodeMix tallies which node answered
		// (X-Sched-Node) — against a gateway it shows the routing split,
		// and a node killed mid-run shows its traffic failing over.
		mixMu      sync.Mutex
		versionMix = map[string]int64{}
		nodeMix    = map[string]int64{}
	)
	for i := 0; i < *conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(*n) {
				r, err := c.post("/v1/schedule", req)
				if err != nil {
					failures.Add(1)
					continue
				}
				node := r.Header.Get("X-Sched-Node")
				var sr server.ScheduleResponse
				ver := ""
				if json.Unmarshal(r.Body, &sr) == nil {
					ver = sr.Policy
					if sr.FilterVersion > 0 {
						ver = fmt.Sprintf("v%d %q", sr.FilterVersion, sr.Policy)
					}
				}
				mixMu.Lock()
				if ver != "" {
					versionMix[ver]++
				}
				if node != "" {
					nodeMix[node]++
				}
				mixMu.Unlock()
			}
		}()
	}
	wg.Wait()

	after, _, err := c.scrape()
	if err != nil {
		return err
	}
	ok := int64(*n) - failures.Load()
	hits := after["codecache_hits_total"] - before["codecache_hits_total"]
	misses := after["codecache_misses_total"] - before["codecache_misses_total"]
	runs := after["schedserved_scheduler_runs_total"] - before["schedserved_scheduler_runs_total"]
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}

	prog := *workload
	if prog == "" {
		prog = *src
	}
	fmt.Fprintf(w, "loadgen: %d requests, %d concurrent, prog=%s target=%s policy=%s\n",
		*n, *conc, prog, orDefault(*target), orDefault(*policySpec))
	fmt.Fprintf(w, "loadgen: ok %d, failed %d\n", ok, failures.Load())
	if hasCache {
		fmt.Fprintf(w, "loadgen: cache +%d hits / +%d misses (hit rate %.1f%%), scheduler runs +%d\n",
			hits, misses, 100*hitRate, runs)
	}
	printMix(w, "filter mix", versionMix)
	printMix(w, "node mix", nodeMix)
	if failures.Load() > 0 {
		return fmt.Errorf("%d requests failed", failures.Load())
	}
	return nil
}

// printMix prints one tally line, keys sorted; an empty tally prints
// nothing.
func printMix(w io.Writer, what string, mix map[string]int64) {
	if len(mix) == 0 {
		return
	}
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "loadgen: %s:", what)
	for _, k := range keys {
		fmt.Fprintf(w, " %s ×%d", k, mix[k])
	}
	fmt.Fprintln(w)
}

func orDefault(f string) string {
	if f == "" {
		return "default"
	}
	return f
}
