package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"schedfilter/internal/cluster"
	"schedfilter/internal/experiments"
	"schedfilter/internal/httpc"
	"schedfilter/internal/machine"
	"schedfilter/internal/online"
	"schedfilter/internal/server"
	"schedfilter/internal/workloads"
)

// The cluster experiment boots clusterNodes schedserved backends plus a
// schedgate gateway in-process and reads three verdicts off them:
//
//  1. convergence — identical sample streams are seeded to every node, a
//     retrain broadcast fans out through the gateway, and the
//     /v1/cluster report must show every node on the same filter version
//     (this phase runs first, before routed traffic can skew any
//     reservoir);
//  2. routing — every workload's serving node must equal the ring's
//     predicted primary, request after request;
//  3. batch — one /v1/batch call fanning every workload across shards.
//
// Every field of the result is deterministic; it is the
// BENCH_cluster.json artifact. Throughput is measured by bench/, not
// here.

// clusterNodes is the backend count.
const clusterNodes = 3

// clusterPolicy is the policy every routed request carries; the gateway
// keys on it, so the routing prediction must too.
const clusterPolicy = "LS"

// clusterResult is the cluster experiment's outcome.
type clusterResult struct {
	Nodes     int      `json:"nodes"`
	Workloads []string `json:"workloads"`

	// Convergence: broadcast retrain through the gateway after identical
	// seeding on every node, then broadcast activation of the induced
	// candidate (operator override — the version rolls out even where
	// the shadow gate rejected it).
	RetrainOK        int  `json:"retrain_ok"`
	RetrainPromoted  int  `json:"retrain_promoted"`
	ActivatedVersion int  `json:"activated_version"`
	Converged        bool `json:"converged"`
	HashConverged    bool `json:"hash_converged"`
	// Versions maps node → active filter version for the default target
	// after the broadcast.
	Versions map[string]int `json:"versions"`

	// Routing: workload → primary node, and whether every observed
	// answer matched the ring's prediction.
	Routing              map[string]string `json:"routing"`
	RoutingDeterministic bool              `json:"routing_deterministic"`

	// Batch: one /v1/batch call with one item per workload.
	BatchOK    int            `json:"batch_ok"`
	BatchNodes map[string]int `json:"batch_nodes"`
}

// Artifact returns the result as an artifact; it has no timing section.
func (r *clusterResult) Artifact() experiments.Artifact {
	return experiments.Artifact{Deterministic: r}
}

// clusterHarness is the in-process cluster: the backends, their
// listeners, and a gateway over all of them.
type clusterHarness struct {
	backends []*server.Server
	listens  []*httptest.Server
	gw       *cluster.Gateway
	gwListen *httptest.Server
}

func newClusterHarness(jobs int) (*clusterHarness, error) {
	h := &clusterHarness{}
	members := make([]cluster.Member, clusterNodes)
	for i := range members {
		name := fmt.Sprintf("n%d", i+1)
		s := server.New(server.Config{
			Node:   name,
			Online: true,
			OnlineOpts: online.Config{
				Targets: []string{machine.DefaultTargetName},
			},
		})
		ts := httptest.NewServer(s.Handler())
		h.backends = append(h.backends, s)
		h.listens = append(h.listens, ts)
		members[i] = cluster.Member{Name: name, URL: ts.URL}
	}
	gw, err := cluster.New(cluster.Config{
		Members:       members,
		CheckInterval: 25 * time.Millisecond,
		Jobs:          jobs,
		// Hedging duplicates slow requests onto a second node; with every
		// backend sharing this process's CPUs that only blurs which node
		// answered, so the experiment disables it.
		HedgeAfter: -1,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	h.gw = gw
	h.gwListen = httptest.NewServer(gw.Handler())
	return h, nil
}

func (h *clusterHarness) close() {
	if h.gwListen != nil {
		h.gwListen.Close()
	}
	if h.gw != nil {
		h.gw.Close()
	}
	for i := range h.backends {
		h.listens[i].Close()
		h.backends[i].Close()
	}
}

// runCluster runs the three verdicts over every bundled workload; jobs
// bounds the gateway's batch and broadcast fan-out (0 = GOMAXPROCS).
func runCluster(jobs int) (*clusterResult, error) {
	res := &clusterResult{
		Nodes:    clusterNodes,
		Routing:  map[string]string{},
		Versions: map[string]int{},
	}
	for _, w := range workloads.All() {
		res.Workloads = append(res.Workloads, w.Name)
	}

	h, err := newClusterHarness(jobs)
	if err != nil {
		return nil, err
	}
	defer h.close()
	gc := httpc.New(h.gwListen.URL, 0, 0)

	if err := runConvergence(h, gc, res); err != nil {
		return nil, fmt.Errorf("convergence: %w", err)
	}
	if err := runRouting(h, gc, res); err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	if err := runBatch(gc, res); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	return res, nil
}

// runConvergence seeds every backend with the identical sample stream
// (one schedule request per workload, posted directly so routing cannot
// skew any node's reservoir), broadcasts one retrain through the
// gateway, and reads the convergence verdict off /v1/cluster.
func runConvergence(h *clusterHarness, gc *httpc.Client, res *clusterResult) error {
	for i, ts := range h.listens {
		c := httpc.New(ts.URL, 0, 0)
		for _, w := range res.Workloads {
			var out server.ScheduleResponse
			if err := post(c, "/v1/schedule", server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Workload: w, Policy: "default"},
			}, &out); err != nil {
				return fmt.Errorf("seed %s on n%d: %w", w, i+1, err)
			}
		}
		// Sample measurement is asynchronous. Manager.Retrain drains the
		// queue itself before it reads the reservoir; draining here as
		// well finishes one node's measurement before the next node is
		// seeded.
		h.backends[i].Online().Drain()
	}

	var bc cluster.BroadcastResponse
	if err := post(gc, "/v1/retrain", server.RetrainRequest{}, &bc); err != nil {
		return err
	}
	res.RetrainOK = bc.OK
	if bc.Failed > 0 {
		return fmt.Errorf("retrain failed on %d nodes", bc.Failed)
	}

	// Every node with enough samples registered a candidate version
	// (promoted or gate-rejected). Roll the newest out cluster-wide by
	// broadcast activation so the actives converge on it.
	candidate := 0
	for _, n := range bc.Nodes {
		var rr server.RetrainResponse
		if json.Unmarshal(n.Response, &rr) != nil {
			continue
		}
		for _, rep := range rr.Reports {
			if rep.Target != machine.DefaultTargetName {
				continue
			}
			candidate = max(candidate, rep.Version)
			if rep.Promoted {
				res.RetrainPromoted++
			}
		}
	}
	if candidate > 0 {
		var ac cluster.BroadcastResponse
		if err := post(gc, fmt.Sprintf("/v1/filters/%d/activate", candidate),
			server.FilterActionRequest{}, &ac); err != nil {
			return fmt.Errorf("activate v%d: %w", candidate, err)
		}
		if ac.Failed > 0 {
			return fmt.Errorf("activate v%d failed on %d nodes", candidate, ac.Failed)
		}
		res.ActivatedVersion = candidate
	}

	resp, err := gc.Get("/v1/cluster")
	if err != nil {
		return err
	}
	var cr cluster.ClusterResponse
	if err := resp.Decode("/v1/cluster", &cr); err != nil {
		return err
	}
	if cr.Healthy != clusterNodes {
		return fmt.Errorf("%d/%d nodes healthy", cr.Healthy, clusterNodes)
	}
	for _, tc := range cr.Convergence {
		if tc.Target != machine.DefaultTargetName {
			continue
		}
		res.Converged = tc.Converged
		res.HashConverged = tc.HashConverged
		for node, v := range tc.Versions {
			res.Versions[node] = v
		}
	}
	if len(res.Versions) == 0 {
		return fmt.Errorf("no convergence report for target %s", machine.DefaultTargetName)
	}
	return nil
}

// runRouting sends every workload through the gateway twice and checks
// each answer against the ring's predicted primary for the same key the
// gateway routes on.
func runRouting(h *clusterHarness, gc *httpc.Client, res *clusterResult) error {
	res.RoutingDeterministic = true
	for _, w := range res.Workloads {
		want := h.gw.Preference(cluster.RoutingKey("", "", w, clusterPolicy))[0]
		res.Routing[w] = want
		for round := 0; round < 2; round++ {
			resp, err := gc.PostJSON("/v1/schedule", server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Workload: w, Policy: clusterPolicy},
			})
			if err != nil {
				return err
			}
			if err := resp.Err("/v1/schedule"); err != nil {
				return err
			}
			if resp.Header.Get("X-Sched-Node") != want {
				res.RoutingDeterministic = false
			}
		}
	}
	return nil
}

// runBatch fans one item per workload across the shards in a single
// /v1/batch call.
func runBatch(gc *httpc.Client, res *clusterResult) error {
	items := make([]json.RawMessage, len(res.Workloads))
	for i, w := range res.Workloads {
		buf, err := json.Marshal(server.ScheduleRequest{
			ProgramInput: server.ProgramInput{Workload: w, Policy: clusterPolicy},
		})
		if err != nil {
			return err
		}
		items[i] = buf
	}
	var br cluster.BatchResponse
	if err := post(gc, "/v1/batch", cluster.BatchRequest{Op: "schedule", Items: items}, &br); err != nil {
		return err
	}
	if br.Failed > 0 {
		return fmt.Errorf("%d batch items failed", br.Failed)
	}
	res.BatchOK = br.OK
	res.BatchNodes = br.Nodes
	return nil
}

// post sends one JSON request and decodes the 200 answer into out.
func post(c *httpc.Client, path string, req, out any) error {
	resp, err := c.PostJSON(path, req)
	if err != nil {
		return err
	}
	return resp.Decode(path, out)
}

// Render prints the verdicts as text.
func (r *clusterResult) Render() string {
	var b strings.Builder
	title := fmt.Sprintf("Cluster gateway: %d backends, %d workloads", r.Nodes, len(r.Workloads))
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("-", len(title)))

	verdict := "NOT converged"
	if r.Converged {
		verdict = "converged"
		if r.HashConverged {
			verdict = "converged (versions and rule hashes)"
		}
	}
	parts := make([]string, 0, len(r.Versions))
	for _, n := range sortedKeys(r.Versions) {
		parts = append(parts, fmt.Sprintf("%s=v%d", n, r.Versions[n]))
	}
	rollout := "no candidate induced"
	if r.ActivatedVersion > 0 {
		rollout = fmt.Sprintf("v%d activated cluster-wide (%d/%d promoted by gate)",
			r.ActivatedVersion, r.RetrainPromoted, r.RetrainOK)
	}
	fmt.Fprintf(&b, "replication: retrain broadcast ok on %d nodes, %s, %s — %s\n",
		r.RetrainOK, rollout, verdict, strings.Join(parts, " "))

	det := "deterministic"
	if !r.RoutingDeterministic {
		det = "NOT deterministic"
	}
	fmt.Fprintf(&b, "routing (%s):", det)
	for _, w := range sortedKeys(r.Routing) {
		fmt.Fprintf(&b, " %s→%s", w, r.Routing[w])
	}
	fmt.Fprintln(&b)

	mix := make([]string, 0, len(r.BatchNodes))
	for _, n := range sortedKeys(r.BatchNodes) {
		mix = append(mix, fmt.Sprintf("%s×%d", n, r.BatchNodes[n]))
	}
	fmt.Fprintf(&b, "batch: %d items ok across [%s]\n", r.BatchOK, strings.Join(mix, " "))
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
