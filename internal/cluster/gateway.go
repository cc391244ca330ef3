package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"schedfilter/internal/httpc"
	"schedfilter/internal/obs"
	"schedfilter/internal/par"
	"schedfilter/internal/server"
)

// maxBatch bounds one batch request's item count.
const maxBatch = 1024

// Gateway is the cluster front: it owns the ring, the member registry
// and health checker, and the HTTP surface. Create with New, serve
// Handler (or ListenAndServe), and Close to stop the checker.
type Gateway struct {
	cfg     Config
	ring    *ring
	members map[string]*member
	order   []string // member names, config order
	// data is the data-plane client for proxied attempts; per-attempt
	// retry/hedge policy lives in forward, not in the client.
	data *http.Client
	obs  *gwObs
	mux  *http.ServeMux

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	// Drain flips the gateway's own /healthz to 503 at shutdown, for
	// stacking gateways behind a further balancer.
	server.Drain
}

// New builds a gateway over cfg.Members, runs one synchronous health
// poll so the first request already has a health picture, and starts
// the background checker.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	g := &Gateway{
		cfg:     cfg,
		members: make(map[string]*member, len(cfg.Members)),
		data:    &http.Client{Timeout: cfg.Timeout},
		stop:    make(chan struct{}),
	}
	for _, mem := range cfg.Members {
		if mem.Name == "" || mem.URL == "" {
			return nil, fmt.Errorf("cluster: member needs name and URL (got %+v)", mem)
		}
		if _, dup := g.members[mem.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate member name %q", mem.Name)
		}
		g.members[mem.Name] = &member{
			Member:  mem,
			health:  httpc.New(mem.URL, healthTimeout, 0),
			control: httpc.New(mem.URL, cfg.Timeout, 0),
		}
		g.order = append(g.order, mem.Name)
	}
	g.ring = newRing(g.order, cfg.Replicas)
	g.obs = newGwObs(g,
		"compile", "schedule", "predict", "execute",
		"batch", "cluster", "filters", "policies", "retrain", "activate", "rollback")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", g.proxy("compile"))
	mux.HandleFunc("POST /v1/schedule", g.proxy("schedule"))
	mux.HandleFunc("POST /v1/predict", g.proxy("predict"))
	mux.HandleFunc("POST /v1/execute", g.proxy("execute"))
	mux.HandleFunc("POST /v1/batch", g.handleBatch)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET /v1/filters", g.handleFilters)
	mux.HandleFunc("GET /v1/policies", g.handlePolicies)
	mux.HandleFunc("POST /v1/filters/{version}/activate", g.handleActivate)
	mux.HandleFunc("POST /v1/filters/rollback", g.handleRollback)
	mux.HandleFunc("POST /v1/retrain", g.handleRetrain)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.Handle("GET /metrics", g.obs.reg)
	g.mux = mux

	g.CheckNow()
	g.wg.Add(1)
	go g.checker()
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Close stops the background health checker. In-flight proxied requests
// are unaffected.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// RoutingKey derives a request's routing identity from its program
// content: the machine target, the program text (inline source or
// workload name), and the request's policy selector. It is a
// pre-compile proxy for the scheduled-block fingerprint — equal request
// content always hashes to the same member, so repeat compilations of a
// program land where its blocks are cached, without the gateway ever
// compiling anything. Policy identity is part of the key because the
// scheduled-block cache keys on it downstream: requests for the same
// program under different policies populate different cache entries, so
// spreading them across members costs nothing and keeps per-policy
// working sets co-located.
func RoutingKey(target, source, workload, policySpec string) string {
	return target + "\x00" + source + "\x00" + workload + "\x00" + policySpec
}

// Preference returns the members (names, config identity) in the key's
// ring preference order, health ignored — the deterministic routing
// table tests and benchmarks compare against.
func (g *Gateway) Preference(key string) []string { return g.ring.pick(key) }

// Routed returns how many data-plane attempts each member has received.
func (g *Gateway) Routed() map[string]int64 { return g.obs.routedSnapshot() }

// proxyResult is one compile-path request's outcome after routing.
type proxyResult struct {
	status int
	body   []byte
	// member is the member the answer came from; node is the backend's
	// own identity header (usually equal).
	member   string
	node     string
	attempts int
	err      error // total transport failure (status 0)
}

// proxy wraps one compile-path endpoint: adopt or mint the request's
// trace ID, read the body, route by content key, forward with retries +
// hedging, relay the answer with the routing span folded into its trace.
func (g *Gateway) proxy(ep string) http.HandlerFunc {
	path := "/v1/" + ep
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := g.obs.eps.Get(ep)
		traceID := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		// Echoed on every relay, error replies included, so the client can
		// correlate even a total routing failure.
		w.Header().Set(obs.TraceHeader, traceID)
		body, err := server.ReadBody(w, r)
		if err != nil {
			server.Reply(w, st, start, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
			return
		}
		res := g.route(r.Context(), path, traceID, body)
		g.relay(w, st, start, traceID, res)
	}
}

// route picks the request's healthy preference order by content key and
// forwards. It never decodes more of the body than the routing fields.
func (g *Gateway) route(ctx context.Context, path, traceID string, body []byte) proxyResult {
	var pin struct {
		Source   string `json:"source"`
		Workload string `json:"workload"`
		Target   string `json:"target"`
		Policy   string `json:"policy"`
	}
	if err := json.Unmarshal(body, &pin); err != nil {
		return proxyResult{status: http.StatusBadRequest,
			body: mustJSON(server.ErrorResponse{Error: "bad request: " + err.Error()})}
	}
	// An empty policy means the backend default — or the gateway's, when
	// one is configured.
	spec := pin.Policy
	if spec == "" && g.cfg.DefaultPolicy != "" {
		spec = g.cfg.DefaultPolicy
		injected, err := injectPolicy(body, spec)
		if err != nil {
			return proxyResult{status: http.StatusBadRequest,
				body: mustJSON(server.ErrorResponse{Error: "bad request: " + err.Error()})}
		}
		body = injected
	}
	prefs := g.healthyPrefs(RoutingKey(pin.Target, pin.Source, pin.Workload, spec))
	if len(prefs) == 0 {
		g.obs.noHealthy.Inc()
		return proxyResult{status: http.StatusServiceUnavailable,
			body: mustJSON(server.ErrorResponse{Error: "no healthy backends"})}
	}
	res := g.forward(ctx, path, traceID, prefs, body)
	if res.err == nil && res.member != "" && res.member != prefs[0].Name {
		g.obs.failovers.Inc()
	}
	return res
}

// injectPolicy re-encodes the request body with the gateway's default
// policy set. It preserves every other field verbatim (unknown ones
// included) by round-tripping through a raw-message map — the only
// compile-path requests that reach it are the ones that pinned nothing.
func injectPolicy(body []byte, spec string) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return nil, err
	}
	if fields == nil {
		fields = make(map[string]json.RawMessage, 1)
	}
	fields["policy"] = mustJSON(spec)
	return json.Marshal(fields)
}

// forward runs the retry/hedge loop over the preference order:
//
//   - attempt 1 goes to the key's healthy primary;
//   - if no answer arrives within HedgeAfter, a hedged duplicate goes to
//     the next member and the first success wins (the loser's request is
//     cancelled);
//   - transient failures (transport error, 429, 5xx) consume the retry
//     budget walking further down the order, with exponential backoff
//     only when nothing else is in flight;
//   - a non-retryable answer (2xx, or a 4xx client fault) is relayed
//     as-is from whichever member produced it first.
func (g *Gateway) forward(ctx context.Context, path, traceID string, prefs []*member, body []byte) proxyResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	maxAttempts := 1 + g.cfg.Retries
	resc := make(chan proxyResult, maxAttempts+1)
	launched := 0
	launch := func() {
		m := prefs[launched%len(prefs)]
		launched++
		g.obs.routedTo(m.Name)
		go func() { resc <- g.attempt(ctx, path, traceID, m, body) }()
	}
	launch()
	var hedgeC <-chan time.Time
	if g.cfg.HedgeAfter > 0 && maxAttempts > 1 && len(prefs) > 1 {
		t := time.NewTimer(g.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	inflight := 1
	var last proxyResult
	for {
		select {
		case res := <-resc:
			inflight--
			res.attempts = launched
			if res.err == nil && !httpc.Retryable(res.status) {
				return res
			}
			last = res
			if launched < maxAttempts {
				if inflight == 0 {
					// Sole failure: back off before the next member. With a
					// hedge still in flight there is nothing to wait for.
					sleepCtx(ctx, httpc.BackoffDelay(httpc.DefaultBackoff, launched))
				}
				g.obs.retries.Inc()
				launch()
				inflight++
			} else if inflight == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < maxAttempts {
				g.obs.hedges.Inc()
				launch()
				inflight++
			}
		}
	}
}

// attempt runs one proxied request against one member, propagating the
// request's trace ID so the backend's spans join the same trace.
func (g *Gateway) attempt(ctx context.Context, path, traceID string, m *member, body []byte) proxyResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+path, bytes.NewReader(body))
	if err != nil {
		return proxyResult{member: m.Name, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := g.data.Do(req)
	if err != nil {
		// Transport failure: pull the member out of rotation immediately
		// instead of waiting out a poll period — the checker restores it
		// when it recovers. A cancelled hedge loser is not evidence.
		if ctx.Err() == nil {
			m.healthy.Store(false)
		}
		return proxyResult{member: m.Name, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return proxyResult{member: m.Name, err: err}
	}
	node := resp.Header.Get("X-Sched-Node")
	if node == "" {
		node = m.Name
	}
	return proxyResult{status: resp.StatusCode, body: b, member: m.Name, node: node}
}

// relay writes a routed result to the client, preserving the backend's
// status and body and attributing the answering node. Successful bodies
// get the gateway's route span folded into their trace: the total
// becomes the gateway-measured elapsed time, so the client sees where
// the whole request went, routing overhead included.
func (g *Gateway) relay(w http.ResponseWriter, st *obs.Endpoint, start time.Time, traceID string, res proxyResult) {
	if res.err != nil {
		server.Reply(w, st, start, http.StatusBadGateway,
			server.ErrorResponse{Error: fmt.Sprintf("all backends failed after %d attempts: %v", res.attempts, res.err)})
		return
	}
	elapsed := time.Since(start)
	st.Record(res.status, elapsed)
	if res.status == http.StatusOK {
		res.body = g.obs.injectRouteSpan(res.body, traceID, elapsed.Nanoseconds())
	}
	if res.node != "" {
		w.Header().Set("X-Sched-Node", res.node)
	}
	if res.attempts > 0 {
		w.Header().Set("X-Sched-Attempts", strconv.Itoa(res.attempts))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := g.obs.eps.Get("batch")
	traceID := r.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}
	// One batch is one trace: every fanned-out item carries the same ID,
	// and the per-item backend traces pass through in the item bodies.
	w.Header().Set(obs.TraceHeader, traceID)
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.Reply(w, st, start, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		server.Reply(w, st, start, http.StatusBadRequest, server.ErrorResponse{Error: "bad request: " + err.Error()})
		return
	}
	if req.Op == "" {
		req.Op = "schedule"
	}
	switch req.Op {
	case "compile", "schedule", "predict", "execute":
	default:
		server.Reply(w, st, start, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("bad op %q (want compile, schedule, predict, or execute)", req.Op)})
		return
	}
	if len(req.Items) == 0 {
		server.Reply(w, st, start, http.StatusBadRequest, server.ErrorResponse{Error: "batch needs items"})
		return
	}
	if len(req.Items) > maxBatch {
		server.Reply(w, st, start, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Items), maxBatch)})
		return
	}
	// Deduplicate before fanning out: a batch that names the same program
	// many times (sweep grids, replicated workloads) costs one backend
	// request per distinct item body; duplicates replicate the group's
	// answer. The op is uniform across the batch, so item bytes alone are
	// the group identity. This rides the same dedupe economics as the
	// backend's schedule singleflight — identical concurrent work is paid
	// for once — but one layer up, before the bytes ever leave the gateway.
	reps := make([]int, 0, len(req.Items))       // group -> representative item index
	group := make([]int, len(req.Items))         // item index -> group
	seen := make(map[string]int, len(req.Items)) // item bytes -> group
	for i, item := range req.Items {
		gi, dup := seen[string(item)]
		if !dup {
			gi = len(reps)
			seen[string(item)] = gi
			reps = append(reps, i)
		}
		group[i] = gi
	}
	path := "/v1/" + req.Op
	routed := make([]proxyResult, len(reps))
	par.Do(par.Jobs(g.cfg.Jobs), len(reps), func(u int) {
		routed[u] = g.route(r.Context(), path, traceID, req.Items[reps[u]])
	})
	resp := BatchResponse{
		Op:        req.Op,
		Items:     make([]BatchItemResult, len(req.Items)),
		Nodes:     map[string]int{},
		Coalesced: len(req.Items) - len(reps),
	}
	for i := range req.Items {
		res := routed[group[i]]
		item := BatchItemResult{Index: i, Node: res.node, Status: res.status, Coalesced: i != reps[group[i]]}
		switch {
		case res.err != nil:
			item.Status = http.StatusBadGateway
			item.Error = res.err.Error()
		case res.status == http.StatusOK:
			item.Response = json.RawMessage(res.body)
		default:
			var e server.ErrorResponse
			_ = json.Unmarshal(res.body, &e)
			item.Error = e.Error
			if item.Error == "" {
				item.Error = fmt.Sprintf("HTTP %d", res.status)
			}
		}
		resp.Items[i] = item
	}
	for _, item := range resp.Items {
		if item.Status == http.StatusOK {
			resp.OK++
			resp.Nodes[item.Node]++
		} else {
			resp.Failed++
		}
	}
	resp.WallNs = time.Since(start).Nanoseconds()
	g.obs.batchItems.Add(int64(len(req.Items)))
	g.obs.batchCoalesced.Add(int64(resp.Coalesced))
	server.Reply(w, st, start, http.StatusOK, resp)
}

// broadcast applies one lifecycle operation to every healthy member and
// re-polls health afterwards so the convergence report reflects the
// post-operation filter versions.
func (g *Gateway) broadcast(op, path string, body []byte, get bool) (int, BroadcastResponse) {
	var targets []*member
	for _, name := range g.order {
		if m := g.members[name]; m.healthy.Load() {
			targets = append(targets, m)
		}
	}
	resp := BroadcastResponse{Op: op, Nodes: make([]NodeResult, len(targets))}
	if len(targets) == 0 {
		return http.StatusServiceUnavailable, resp
	}
	g.obs.broadcasts.Inc()
	par.Do(par.Jobs(g.cfg.Jobs), len(targets), func(i int) {
		m := targets[i]
		var r *httpc.Response
		var err error
		if get {
			r, err = m.control.Get(path)
		} else {
			r, err = m.control.PostBytes(path, body)
		}
		node := NodeResult{Node: m.Name}
		switch {
		case err != nil:
			node.Status = http.StatusBadGateway
			node.Error = err.Error()
		case r.Status == http.StatusOK:
			node.Status = r.Status
			node.Response = json.RawMessage(r.Body)
		default:
			node.Status = r.Status
			var e server.ErrorResponse
			_ = json.Unmarshal(r.Body, &e)
			node.Error = e.Error
			if node.Error == "" {
				node.Error = fmt.Sprintf("HTTP %d", r.Status)
			}
		}
		resp.Nodes[i] = node
	})
	for _, n := range resp.Nodes {
		if n.Status == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	g.CheckNow()
	resp.Convergence = g.convergence()
	return broadcastStatus(resp.Nodes), resp
}

// broadcastStatus is a broadcast's reply status: 200 when some member
// applied the operation; when none did and every member refused it with a
// client fault, that fault (400 when the members disagree), so the caller
// sees its own error; otherwise 502.
func broadcastStatus(nodes []NodeResult) int {
	status := 0
	for _, n := range nodes {
		switch {
		case n.Status == http.StatusOK:
			return http.StatusOK
		case n.Status < 400 || n.Status >= 500:
			status = http.StatusBadGateway
		case status == 0:
			status = n.Status
		case status != n.Status && status != http.StatusBadGateway:
			status = http.StatusBadRequest
		}
	}
	return status
}

// broadcastHandler wraps one lifecycle endpoint; pathFn derives the
// backend path (activate embeds the version path parameter).
func (g *Gateway) broadcastHandler(op string, pathFn func(r *http.Request) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := g.obs.eps.Get(op)
		body, err := server.ReadBody(w, r)
		if err != nil {
			server.Reply(w, st, start, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
			return
		}
		if len(bytes.TrimSpace(body)) == 0 {
			body = []byte("{}")
		}
		status, resp := g.broadcast(op, pathFn(r), body, false)
		server.Reply(w, st, start, status, resp)
	}
}

func (g *Gateway) handleRetrain(w http.ResponseWriter, r *http.Request) {
	g.broadcastHandler("retrain", func(*http.Request) string { return "/v1/retrain" })(w, r)
}

func (g *Gateway) handleActivate(w http.ResponseWriter, r *http.Request) {
	g.broadcastHandler("activate", func(r *http.Request) string {
		return "/v1/filters/" + r.PathValue("version") + "/activate"
	})(w, r)
}

func (g *Gateway) handleRollback(w http.ResponseWriter, r *http.Request) {
	g.broadcastHandler("rollback", func(*http.Request) string { return "/v1/filters/rollback" })(w, r)
}

// handleFilters fans GET /v1/filters out to every healthy member and
// returns the per-node registries side by side.
func (g *Gateway) handleFilters(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := g.obs.eps.Get("filters")
	status, resp := g.broadcast("filters", "/v1/filters", nil, true)
	server.Reply(w, st, start, status, resp)
}

// handlePolicies fans GET /v1/policies out to every healthy member and
// returns the per-node policy surfaces (registered kinds plus the active
// policy per target) side by side.
func (g *Gateway) handlePolicies(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := g.obs.eps.Get("policies")
	status, resp := g.broadcast("policies", "/v1/policies", nil, true)
	server.Reply(w, st, start, status, resp)
}

// convergence folds the members' last health reports into per-target
// verdicts. A target converged when every healthy online member reports
// the same active version number for it.
func (g *Gateway) convergence() []TargetConvergence {
	online := 0
	byTarget := map[string]*TargetConvergence{}
	for _, name := range g.order {
		h := g.members[name].last.Load()
		if h == nil || !h.ok || !h.resp.Online {
			continue
		}
		online++
		for _, af := range h.resp.ActiveFilters {
			tc := byTarget[af.Target]
			if tc == nil {
				tc = &TargetConvergence{
					Target:   af.Target,
					Versions: map[string]int{},
					Hashes:   map[string]string{},
				}
				byTarget[af.Target] = tc
			}
			tc.Versions[name] = af.Version
			tc.Hashes[name] = af.RuleHash
		}
	}
	names := make([]string, 0, len(byTarget))
	for t := range byTarget {
		names = append(names, t)
	}
	sort.Strings(names)
	out := make([]TargetConvergence, 0, len(names))
	for _, t := range names {
		tc := byTarget[t]
		tc.Converged = len(tc.Versions) == online && allEqualInt(tc.Versions)
		tc.HashConverged = tc.Converged && allEqualStr(tc.Hashes)
		out = append(out, *tc)
	}
	return out
}

func allEqualInt(m map[string]int) bool {
	first, have := 0, false
	for _, v := range m {
		if !have {
			first, have = v, true
		} else if v != first {
			return false
		}
	}
	return true
}

func allEqualStr(m map[string]string) bool {
	first, have := "", false
	for _, v := range m {
		if !have {
			first, have = v, true
		} else if v != first {
			return false
		}
	}
	return true
}

// handleCluster answers the membership + convergence report from a
// fresh poll.
func (g *Gateway) handleCluster(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	st := g.obs.eps.Get("cluster")
	g.CheckNow()
	resp := ClusterResponse{Total: len(g.order), Replicas: g.cfg.Replicas}
	for _, name := range g.order {
		m := g.members[name]
		ms := MemberStatus{Name: name, URL: m.URL}
		if h := m.last.Load(); h != nil {
			ms.Healthy = h.ok
			ms.Error = h.err
			ms.Node = h.resp.Node
			ms.Target = h.resp.Target
			ms.Policy = h.resp.Policy
			ms.FilterVersion = h.resp.FilterVersion
			ms.Online = h.resp.Online
			ms.Draining = h.resp.Draining
			ms.ActiveFilters = h.resp.ActiveFilters
			ms.CheckedMsAgo = time.Since(h.at).Milliseconds()
		}
		if ms.Healthy {
			resp.Healthy++
		}
		resp.Members = append(resp.Members, ms)
	}
	resp.Convergence = g.convergence()
	server.Reply(w, st, start, http.StatusOK, resp)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g.ServeHealth(w, func(status string, draining bool) any {
		return gatewayHealth{Status: status, Members: len(g.order), Healthy: g.healthyCount(), Draining: draining}
	})
}

// ListenAndServe runs the gateway on addr until ctx is cancelled, then
// drains it through the backend's shutdown sequence (server.Serve); the
// health checker stops last.
func (g *Gateway) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return server.Serve(ctx, g, addr, drainTimeout)
}

// sleepCtx pauses for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// mustJSON marshals a value the gateway itself constructed; failure is
// a programming error.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
