package serverbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schedfilter"
	"schedfilter/internal/cluster"
	"schedfilter/internal/experiments"
	"schedfilter/internal/server"
	"schedfilter/internal/workloads"
)

// The cluster benchmark boots N schedserved backends plus a schedgate
// gateway in-process and measures what the cluster layer adds:
//
//  1. filter replication — identical sample streams are seeded to every
//     node, a retrain broadcast fans out through the gateway, and the
//     /v1/cluster report must show every node converged on the same
//     filter version (this phase runs first, before routed traffic can
//     skew any reservoir, so its outcome is deterministic);
//  2. routing — every workload's observed serving node must equal the
//     ring's predicted primary, request after request;
//  3. throughput — the same round-robin request stream through a
//     1-backend gateway vs the N-backend gateway;
//  4. batch — one /v1/batch call fanning every workload across shards.
//
// Structural fields of the artifact (routing table, per-node request
// counts, convergence verdict) are deterministic; wall-clock numbers
// are not and are reported for information only.

// ClusterConfig parameterizes the cluster benchmark.
type ClusterConfig struct {
	// Nodes is the backend count; 0 selects 3.
	Nodes int
	// Requests per throughput phase; 0 selects 48.
	Requests int
	// Concurrency of the throughput phases; 0 selects 8.
	Concurrency int
	// Workloads to drive; empty selects all bundled benchmarks.
	Workloads []string
	// Jobs bounds the gateway's batch/broadcast fan-out; 0 selects
	// GOMAXPROCS.
	Jobs int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Requests <= 0 {
		c.Requests = 48
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if len(c.Workloads) == 0 {
		for _, w := range workloads.All() {
			c.Workloads = append(c.Workloads, w.Name)
		}
	}
	return c
}

// ClusterPhase is one throughput phase's numbers.
type ClusterPhase struct {
	Nodes    int `json:"nodes"`
	Requests int `json:"requests"`
	// NodeRequests maps node → served requests (from X-Sched-Node);
	// deterministic given the routing table and round-robin stream.
	NodeRequests map[string]int `json:"node_requests"`
	// Wall-clock numbers; informational, not deterministic.
	WallNs    int64   `json:"wall_ns"`
	ReqPerSec float64 `json:"req_per_sec"`
	AvgNs     int64   `json:"avg_ns"`
}

// ClusterResult is the whole benchmark (the BENCH_cluster.json
// artifact).
type ClusterResult struct {
	Nodes       int      `json:"nodes"`
	Workloads   []string `json:"workloads"`
	Requests    int      `json:"requests_per_phase"`
	Concurrency int      `json:"concurrency"`

	// Convergence phase: broadcast retrain through the gateway after
	// identical seeding on every node, then broadcast activation of the
	// induced candidate (operator override — the version rolls out even
	// where the shadow gate rejected it).
	RetrainOK        int  `json:"retrain_ok"`
	RetrainPromoted  int  `json:"retrain_promoted"`
	ActivatedVersion int  `json:"activated_version"`
	Converged        bool `json:"converged"`
	HashConverged    bool `json:"hash_converged"`
	// Versions maps node → active filter version for the default target
	// after the broadcast.
	Versions map[string]int `json:"versions"`

	// Routing phase: workload → primary node, and whether every observed
	// answer matched the ring's prediction.
	Routing              map[string]string `json:"routing"`
	RoutingDeterministic bool              `json:"routing_deterministic"`

	Single ClusterPhase `json:"single"`
	Multi  ClusterPhase `json:"multi"`
	// Speedup is multi req/s over single req/s; informational (the
	// backends share one process and its CPUs here).
	Speedup float64 `json:"speedup"`

	// Batch phase: one /v1/batch call with one item per workload.
	BatchOK    int            `json:"batch_ok"`
	BatchNodes map[string]int `json:"batch_nodes"`
}

// clusterHarness is the in-process cluster: N backends, their listeners,
// and a gateway over all of them.
type clusterHarness struct {
	backends []*server.Server
	listens  []*httptest.Server
	names    []string
	gw       *cluster.Gateway
	gwListen *httptest.Server
}

func newClusterHarness(nodes int, jobs int) (*clusterHarness, error) {
	h := &clusterHarness{}
	members := make([]cluster.Member, nodes)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		s := server.New(server.Config{
			Node:   name,
			Online: true,
			OnlineOpts: schedfilter.OnlineConfig{
				Targets: []string{schedfilter.DefaultTargetName},
			},
		})
		ts := httptest.NewServer(s.Handler())
		h.backends = append(h.backends, s)
		h.listens = append(h.listens, ts)
		h.names = append(h.names, name)
		members[i] = cluster.Member{Name: name, URL: ts.URL}
	}
	gw, err := cluster.New(cluster.Config{
		Members:       members,
		CheckInterval: 25 * time.Millisecond,
		Jobs:          jobs,
		// Hedging duplicates slow requests onto a second node; with every
		// backend sharing this process's CPUs that only skews the
		// deterministic node counts, so the benchmark disables it.
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

// RunCluster executes the cluster benchmark.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	res := &ClusterResult{
		Nodes:       cfg.Nodes,
		Workloads:   cfg.Workloads,
		Requests:    cfg.Requests,
		Concurrency: cfg.Concurrency,
		Routing:     map[string]string{},
		Versions:    map[string]int{},
	}

	h, err := newClusterHarness(cfg.Nodes, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	defer h.close()

	if err := runConvergence(h, cfg, res); err != nil {
		return nil, fmt.Errorf("convergence: %w", err)
	}
	if err := runRouting(h, cfg, res); err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}

	// Single-node throughput: same backends, but a gateway fronting only
	// the first — every request lands on n1.
	single, err := cluster.New(cluster.Config{
		Members:       []cluster.Member{{Name: h.names[0], URL: h.listens[0].URL}},
		CheckInterval: 25 * time.Millisecond,
		Jobs:          cfg.Jobs,
		HedgeAfter:    -1,
	})
	if err != nil {
		return nil, err
	}
	singleListen := httptest.NewServer(single.Handler())
	res.Single, err = runPhase(singleListen.URL, 1, cfg)
	singleListen.Close()
	single.Close()
	if err != nil {
		return nil, fmt.Errorf("single phase: %w", err)
	}

	res.Multi, err = runPhase(h.gwListen.URL, cfg.Nodes, cfg)
	if err != nil {
		return nil, fmt.Errorf("multi phase: %w", err)
	}
	if res.Single.ReqPerSec > 0 {
		res.Speedup = res.Multi.ReqPerSec / res.Single.ReqPerSec
	}

	if err := runBatch(h, cfg, res); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	return res, nil
}

// runConvergence seeds every backend with the identical sample stream
// (one schedule request per workload, posted directly so routing cannot
// skew any node's reservoir), broadcasts one retrain through the
// gateway, and reads the convergence verdict off /v1/cluster.
func runConvergence(h *clusterHarness, cfg ClusterConfig, res *ClusterResult) error {
	for i := range h.backends {
		c := &benchClient{base: h.listens[i].URL, hc: h.listens[i].Client()}
		for _, w := range cfg.Workloads {
			if _, err := c.schedule(server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Workload: w, Policy: "default"},
			}); err != nil {
				return fmt.Errorf("seed %s on %s: %w", w, h.names[i], err)
			}
		}
		// Sample measurement is asynchronous; retraining before the
		// queue drains would see no labelled samples.
		if err := waitMeasured(c, 30*time.Second); err != nil {
			return fmt.Errorf("%s: %w", h.names[i], err)
		}
	}

	gc := &benchClient{base: h.gwListen.URL, hc: h.gwListen.Client()}
	body, err := gc.postJSON("/v1/retrain", server.RetrainRequest{})
	if err != nil {
		return err
	}
	var bc cluster.BroadcastResponse
	if err := json.Unmarshal(body, &bc); err != nil {
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
			if rep.Target != schedfilter.DefaultTargetName {
				continue
			}
			if rep.Version > candidate {
				candidate = rep.Version
			}
			if rep.Promoted {
				res.RetrainPromoted++
			}
		}
	}
	if candidate > 0 {
		body, err = gc.postJSON(fmt.Sprintf("/v1/filters/%d/activate", candidate),
			server.FilterActionRequest{})
		if err != nil {
			return fmt.Errorf("activate v%d: %w", candidate, err)
		}
		var ac cluster.BroadcastResponse
		if err := json.Unmarshal(body, &ac); err != nil {
			return err
		}
		if ac.Failed > 0 {
			return fmt.Errorf("activate v%d failed on %d nodes", candidate, ac.Failed)
		}
		res.ActivatedVersion = candidate
	}

	body, err = gc.get("/v1/cluster")
	if err != nil {
		return err
	}
	var cr cluster.ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return err
	}
	if cr.Healthy != cfg.Nodes {
		return fmt.Errorf("%d/%d nodes healthy", cr.Healthy, cfg.Nodes)
	}
	for _, tc := range cr.Convergence {
		if tc.Target != schedfilter.DefaultTargetName {
			continue
		}
		res.Converged = tc.Converged
		res.HashConverged = tc.HashConverged
		for node, v := range tc.Versions {
			res.Versions[node] = v
		}
	}
	if len(res.Versions) == 0 {
		return fmt.Errorf("no convergence report for target %s", schedfilter.DefaultTargetName)
	}
	return nil
}

// runRouting sends every workload through the gateway twice and checks
// each answer against the ring's predicted primary.
func runRouting(h *clusterHarness, cfg ClusterConfig, res *ClusterResult) error {
	gc := &benchClient{base: h.gwListen.URL, hc: h.gwListen.Client()}
	res.RoutingDeterministic = true
	for _, w := range cfg.Workloads {
		want := h.gw.Preference(cluster.RoutingKey("", "", w, ""))[0]
		res.Routing[w] = want
		for round := 0; round < 2; round++ {
			node, err := gc.scheduleNode(server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Workload: w, Policy: "LS"},
			})
			if err != nil {
				return err
			}
			if node != want {
				res.RoutingDeterministic = false
			}
		}
	}
	return nil
}

// runPhase fires the round-robin request stream at one gateway and
// tallies which node answered each request.
func runPhase(base string, nodes int, cfg ClusterConfig) (ClusterPhase, error) {
	ph := ClusterPhase{Nodes: nodes, Requests: cfg.Requests, NodeRequests: map[string]int{}}
	gc := &benchClient{base: base, hc: &http.Client{Timeout: 120 * time.Second}}
	var (
		next     atomic.Int64
		latSum   atomic.Int64
		firstErr atomic.Value
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Requests) {
					return
				}
				t0 := time.Now()
				node, err := gc.scheduleNode(server.ScheduleRequest{
					ProgramInput: server.ProgramInput{Workload: cfg.Workloads[int(i)%len(cfg.Workloads)], Policy: "LS"},
				})
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				latSum.Add(time.Since(t0).Nanoseconds())
				mu.Lock()
				ph.NodeRequests[node]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return ph, err
	}
	wall := time.Since(start)
	ph.WallNs = wall.Nanoseconds()
	ph.ReqPerSec = float64(cfg.Requests) / wall.Seconds()
	ph.AvgNs = latSum.Load() / int64(cfg.Requests)
	return ph, nil
}

// runBatch fans one item per workload across the shards in a single
// /v1/batch call.
func runBatch(h *clusterHarness, cfg ClusterConfig, res *ClusterResult) error {
	gc := &benchClient{base: h.gwListen.URL, hc: h.gwListen.Client()}
	items := make([]json.RawMessage, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		buf, err := json.Marshal(server.ScheduleRequest{
			ProgramInput: server.ProgramInput{Workload: w, Policy: "LS"},
		})
		if err != nil {
			return err
		}
		items[i] = buf
	}
	body, err := gc.postJSON("/v1/batch", cluster.BatchRequest{Op: "schedule", Items: items})
	if err != nil {
		return err
	}
	var br cluster.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return err
	}
	if br.Failed > 0 {
		return fmt.Errorf("%d batch items failed", br.Failed)
	}
	res.BatchOK = br.OK
	res.BatchNodes = br.Nodes
	return nil
}

// Render prints the benchmark as text.
func (r *ClusterResult) Render() string {
	var b strings.Builder
	title := fmt.Sprintf("Cluster gateway: %d backends, %d reqs x %d clients per phase",
		r.Nodes, r.Requests, r.Concurrency)
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("-", len(title)))

	verdict := "NOT converged"
	if r.Converged {
		verdict = "converged"
		if r.HashConverged {
			verdict = "converged (versions and rule hashes)"
		}
	}
	nodes := make([]string, 0, len(r.Versions))
	for n := range r.Versions {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = fmt.Sprintf("%s=v%d", n, r.Versions[n])
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
	ws := append([]string(nil), r.Workloads...)
	sort.Strings(ws)
	for _, w := range ws {
		fmt.Fprintf(&b, " %s→%s", w, r.Routing[w])
	}
	fmt.Fprintln(&b)

	phase := func(name string, p ClusterPhase) {
		ns := make([]string, 0, len(p.NodeRequests))
		for n := range p.NodeRequests {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		mix := make([]string, len(ns))
		for i, n := range ns {
			mix[i] = fmt.Sprintf("%s×%d", n, p.NodeRequests[n])
		}
		fmt.Fprintf(&b, "%-14s %d nodes, %d reqs, %7.1f req/s, avg %v  [%s]\n",
			name, p.Nodes, p.Requests, p.ReqPerSec,
			time.Duration(p.AvgNs).Round(time.Microsecond), strings.Join(mix, " "))
	}
	phase("single-node:", r.Single)
	phase("multi-node:", r.Multi)
	fmt.Fprintf(&b, "throughput: %.2fx multi vs single (in-process, informational)\n", r.Speedup)

	bs := make([]string, 0, len(r.BatchNodes))
	for n := range r.BatchNodes {
		bs = append(bs, n)
	}
	sort.Strings(bs)
	bmix := make([]string, len(bs))
	for i, n := range bs {
		bmix[i] = fmt.Sprintf("%s×%d", n, r.BatchNodes[n])
	}
	fmt.Fprintf(&b, "batch: %d items ok across [%s]\n", r.BatchOK, strings.Join(bmix, " "))
	return b.String()
}

// WriteJSON writes the BENCH_cluster.json artifact.
func (r *ClusterResult) WriteJSON(path string) error { return experiments.WriteJSON(path, r) }

// postJSON POSTs one JSON value and returns the 200 body; non-2xx
// responses become errors carrying the service's error text.
func (c *benchClient) postJSON(path string, v any) ([]byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// get fetches one path and returns the 200 body.
func (c *benchClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// waitMeasured blocks until a backend's asynchronous measurement queue
// has labelled every enqueued sample (online_samples_measured_total has
// caught up with online_blocks_enqueued_total on /metrics). Retraining
// before that point would see an empty reservoir.
func waitMeasured(c *benchClient, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		body, err := c.get("/metrics")
		if err != nil {
			return err
		}
		enq := metricValue(body, "online_blocks_enqueued_total")
		meas := metricValue(body, "online_samples_measured_total")
		if enq > 0 && meas >= enq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("measurement queue not drained: %d/%d samples measured", meas, enq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue pulls one un-labelled counter out of a Prometheus text
// exposition; absent metrics read as 0.
func metricValue(body []byte, name string) int64 {
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(rest, "%d", &v); err == nil {
			return v
		}
	}
	return 0
}

// scheduleNode runs one schedule request and returns which node
// answered it (the X-Sched-Node header).
func (c *benchClient) scheduleNode(req server.ScheduleRequest) (string, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Post(c.base+"/v1/schedule", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return "", fmt.Errorf("schedule: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return "", fmt.Errorf("schedule: HTTP %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Sched-Node"), nil
}
