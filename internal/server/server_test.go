package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schedfilter/internal/obs"
	"schedfilter/internal/policy"
	"schedfilter/internal/workloads"
)

const testSource = `
func work(n int) int {
  var s int = 0;
  for (var i int = 0; i < n; i = i + 1) { s = s + i * 3 - (i / 2); }
  return s;
}
func main() int {
  return work(64) + work(32);
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post[T any](t *testing.T, url string, body any) (int, T) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

// scrape fetches /metrics and returns the value of one (possibly
// labelled) series.
func scrape(t *testing.T, base, metric string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + ` (-?\d+)$`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("metric %q not found in:\n%s", metric, buf.String())
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp := post[CompileResponse](t, ts.URL+"/v1/compile", CompileRequest{
		ProgramInput: ProgramInput{Source: testSource},
		Listing:      true,
	})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Fns == 0 || resp.Blocks == 0 || resp.Instrs == 0 {
		t.Fatalf("empty compile response: %+v", resp)
	}
	if !strings.Contains(resp.Listing, "fn main") {
		t.Fatalf("listing missing main:\n%s", resp.Listing)
	}
}

// The acceptance property: a second identical schedule request is served
// entirely from the cache — the list scheduler does not run again, and
// the /metrics counters prove it.
func TestScheduleSecondRequestFullyCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}}

	code, first := post[ScheduleResponse](t, ts.URL+"/v1/schedule", req)
	if code != 200 {
		t.Fatalf("first schedule: status %d", code)
	}
	if first.Scheduled == 0 || first.CacheMisses == 0 {
		t.Fatalf("cold request did no work: %+v", first)
	}
	runsAfterFirst := scrape(t, ts.URL, "schedserved_scheduler_runs_total")

	code, second := post[ScheduleResponse](t, ts.URL+"/v1/schedule", req)
	if code != 200 {
		t.Fatalf("second schedule: status %d", code)
	}
	if second.CacheMisses != 0 {
		t.Fatalf("second identical request re-ran the scheduler %d times: %+v", second.CacheMisses, second)
	}
	if second.CacheHits != second.Scheduled {
		t.Fatalf("second request not fully cached: %+v", second)
	}
	if second.ProgramKey != first.ProgramKey {
		t.Fatal("identical requests produced different program fingerprints")
	}
	if second.CostAfter != first.CostAfter || second.Changed != first.Changed {
		t.Fatalf("replayed schedule drifted: first %+v second %+v", first, second)
	}
	if runs := scrape(t, ts.URL, "schedserved_scheduler_runs_total"); runs != runsAfterFirst {
		t.Fatalf("scheduler_runs_total advanced %d -> %d on a cached request", runsAfterFirst, runs)
	}
	if hits := scrape(t, ts.URL, "schedserved_sched_cache_hits_total"); hits < int64(second.CacheHits) {
		t.Fatalf("cache hit counter %d below request hits %d", hits, second.CacheHits)
	}
}

// From the third identical request on, a memoized source replays its
// stored pass: schedule and execute report a fully cached pass whose one
// scheduling span is the lookup of the stored pass, with no fingerprint,
// DAG-build, list-schedule or estimator span.
func TestReplayTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := ProgramInput{Source: testSource}
	check := func(what string, tr *obs.TraceInfo, scheduled, hits, misses int) {
		t.Helper()
		n := map[string]int{}
		for _, sp := range tr.Spans {
			n[sp.Phase]++
		}
		if hits != scheduled || misses != 0 || n[obs.PhaseCacheLookup] != 1 || n[obs.PhaseFingerprint]+
			n[obs.PhaseDAGBuild]+n[obs.PhaseListSchedule]+n[obs.PhaseEstimator] != 0 {
			t.Errorf("%s: %d hits, %d misses for %d scheduled blocks, spans %v", what, hits, misses, scheduled, n)
		}
	}
	var sr ScheduleResponse
	for i := 0; i < 3; i++ {
		_, sr = post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{ProgramInput: in})
	}
	check("schedule", sr.Trace, sr.Scheduled, sr.CacheHits, sr.CacheMisses)
	_, er := post[ExecuteResponse](t, ts.URL+"/v1/execute", ExecuteRequest{ProgramInput: in})
	check("execute", er.Trace, er.Scheduled, er.CacheHits, er.CacheMisses)
}

func TestScheduleNoCacheBypasses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}, NoCache: true}
	post[ScheduleResponse](t, ts.URL+"/v1/schedule", req)
	code, second := post[ScheduleResponse](t, ts.URL+"/v1/schedule", req)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if second.CacheHits != 0 || second.CacheMisses != 0 {
		t.Fatalf("no_cache request touched the cache: %+v", second)
	}
}

func TestScheduleWorkloadAndFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, filter := range []string{"LS", "NS", "size:10"} {
		code, resp := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
			ProgramInput: ProgramInput{Workload: "compress", Policy: filter},
		})
		if code != 200 {
			t.Fatalf("filter %s: status %d", filter, code)
		}
		if filter == "NS" && resp.Scheduled != 0 {
			t.Fatalf("NS scheduled %d blocks", resp.Scheduled)
		}
		if filter == "LS" && resp.Scheduled != resp.Blocks {
			t.Fatalf("LS skipped blocks: %+v", resp)
		}
	}
}

func TestPredictEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp := post[PredictResponse](t, ts.URL+"/v1/predict", PredictRequest{
		ProgramInput: ProgramInput{Source: testSource, Policy: "size:5"},
		Detail:       true,
	})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Blocks == 0 || len(resp.Decisions) != resp.Blocks {
		t.Fatalf("bad predict response: %+v", resp)
	}
	yes := 0
	for _, d := range resp.Decisions {
		if d.Schedule {
			yes++
			if d.BBLen < 5 {
				t.Fatalf("size:5 approved a %d-instruction block", d.BBLen)
			}
		}
	}
	if yes != resp.WouldSchedule {
		t.Fatalf("decision list disagrees with aggregate: %d vs %d", yes, resp.WouldSchedule)
	}
}

func TestExecuteEndpointDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ExecuteRequest{ProgramInput: ProgramInput{Source: testSource}}
	code, first := post[ExecuteResponse](t, ts.URL+"/v1/execute", req)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if first.Cycles == 0 || first.DynInstrs == 0 {
		t.Fatalf("untimed or empty run: %+v", first)
	}
	_, second := post[ExecuteResponse](t, ts.URL+"/v1/execute", req)
	if second.Ret != first.Ret || second.Cycles != first.Cycles {
		t.Fatalf("execute not deterministic: %+v vs %+v", first, second)
	}
	if second.CacheMisses != 0 {
		t.Fatalf("second execute re-ran the scheduler: %+v", second)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  ScheduleRequest
	}{
		{"empty", ScheduleRequest{}},
		{"both inputs", ScheduleRequest{ProgramInput: ProgramInput{Source: "x", Workload: "compress"}}},
		{"bad source", ScheduleRequest{ProgramInput: ProgramInput{Source: "func ("}}},
		{"unknown workload", ScheduleRequest{ProgramInput: ProgramInput{Workload: "nope"}}},
		{"unknown filter", ScheduleRequest{ProgramInput: ProgramInput{Source: testSource, Policy: "wat"}}},
		{"bad size", ScheduleRequest{ProgramInput: ProgramInput{Source: testSource, Policy: "size:x"}}},
	}
	for _, c := range cases {
		code, resp := post[ErrorResponse](t, ts.URL+"/v1/schedule", c.req)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
		if resp.Error == "" {
			t.Errorf("%s: empty error body", c.name)
		}
	}
}

// A request body is one JSON object: a second value or any other
// non-whitespace byte after it is refused, trailing JSON whitespace is
// not, and an undeclared field is refused by name.
func TestDecodeRequestTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const obj = `{"workload":"compress","policy":"never"}`
	cases := []struct {
		name, body, refusal string
	}{
		{"second object", obj + `{}`, "trailing data after the request object"},
		{"second object after a newline", obj + "\n" + obj, "trailing data after the request object"},
		{"trailing garbage", obj + ` x`, "trailing data after the request object"},
		{"stray brace", obj + `}`, "trailing data after the request object"},
		{"trailing spaces", obj + "   ", ""},
		{"trailing newlines", obj + "\r\n\n\t", ""},
		{"unknown field", `{"workload":"compress","nope":1}`, `unknown field "nope"`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]any
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		msg, _ := reply["error"].(string)
		switch {
		case c.refusal == "" && resp.StatusCode != http.StatusOK:
			t.Errorf("%s: status %d (%s), want 200", c.name, resp.StatusCode, msg)
		case c.refusal != "" && (resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, c.refusal)):
			t.Errorf("%s: status %d, error %q; want 400 naming %s", c.name, resp.StatusCode, msg, c.refusal)
		}
	}
}

func TestInlineModelFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	model := "# filter: L/N inline\n# labels: list orig\n(    1/   0) list :- bbLen >= 6.\n(    1/   0) orig :- .\n"
	code, resp := post[PredictResponse](t, ts.URL+"/v1/predict", PredictRequest{
		ProgramInput: ProgramInput{Source: testSource},
		FilterSpec:   FilterSpec{Model: model},
	})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Policy != "L/N inline" {
		t.Fatalf("policy label = %q", resp.Policy)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Model == "" || h.Policy == "" {
		t.Fatalf("bad health: %+v", h)
	}
	if h.Target != "mpc7410" || len(h.Targets) < 3 {
		t.Fatalf("health should name the default target and list all: %+v", h)
	}
}

// The retired "filter" selector is refused by name on every compile
// endpoint instead of being served the default policy, and no response
// (nor /healthz) reports a filter key: the serving policy is "policy".
func TestFilterFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Filter: policy.Never{}})
	for _, ep := range []string{"compile", "schedule", "predict", "execute"} {
		code, resp := post[map[string]any](t, ts.URL+"/v1/"+ep,
			map[string]string{"source": testSource, "filter": "LS"})
		if msg, _ := resp["error"].(string); code != 400 || !strings.Contains(msg, `"filter"`) {
			t.Errorf("%s: filter-only request: status %d, %v; want 400 naming the field", ep, code, resp)
		}
	}
	for _, ep := range []string{"schedule", "predict", "execute"} {
		code, resp := post[map[string]any](t, ts.URL+"/v1/"+ep,
			map[string]string{"source": testSource, "policy": "LS"})
		if code != 200 || resp["policy"] != "LS" || resp["policy_id"] != "LS" {
			t.Fatalf("%s: status %d, served by policy %v (id %v), want LS", ep, code, resp["policy"], resp["policy_id"])
		}
		if _, ok := resp["filter"]; ok {
			t.Errorf("%s: response carries a filter key", ep)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if _, ok := h["filter"]; ok || h["policy"] != "NS" {
		t.Errorf("healthz: %v, want policy NS and no filter key", h)
	}
}

// The load-balancer contract behind drain support: BeginDrain flips
// /healthz to 503 "draining" while the compile endpoints keep serving,
// so a balancer or cluster gateway pulls the node before its listener
// closes and in-flight clients never see a reset.
func TestBeginDrainFlipsHealthzKeepsServing(t *testing.T) {
	s, ts := newTestServer(t, Config{Node: "n-drain"})
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: HTTP %d, want 503", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining || h.Node != "n-drain" {
		t.Fatalf("draining health: %+v", h)
	}
	// Work endpoints still answer: drain only moves the health signal.
	code, sr := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
		ProgramInput: ProgramInput{Source: testSource},
	})
	if code != 200 || sr.Blocks == 0 {
		t.Fatalf("schedule during drain: status %d, %+v", code, sr)
	}
	if v := scrape(t, ts.URL, "schedserved_draining"); v != 1 {
		t.Fatalf("schedserved_draining = %d during drain, want 1", v)
	}
}

// The drained shutdown end to end: health flips before the listener
// closes, in the ListenAndServe path the daemons use.
func TestListenAndServeDrainOrder(t *testing.T) {
	s := New(Config{Node: "n-lb"})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, addr, 5*time.Second) }()
	base := "http://" + addr
	// Wait for the listener.
	var resp *http.Response
	for i := 0; i < 200; i++ {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up on %s: %v", addr, err)
	}
	resp.Body.Close()
	cancel()
	// Within the drain notice the listener still answers, 503.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain notice: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain notice: HTTP %d, want 503", resp.StatusCode)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("ListenAndServe: %v", err)
	}
}

func TestScheduleSelectsTarget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	def := ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}}
	wide := ScheduleRequest{ProgramInput: ProgramInput{Source: testSource, Target: "wide4"}}

	code, d := post[ScheduleResponse](t, ts.URL+"/v1/schedule", def)
	if code != 200 || d.Target != "mpc7410" {
		t.Fatalf("default schedule: status %d, target %q", code, d.Target)
	}
	code, w := post[ScheduleResponse](t, ts.URL+"/v1/schedule", wide)
	if code != 200 || w.Target != "wide4" {
		t.Fatalf("wide4 schedule: status %d, target %q", code, w.Target)
	}
	if w.ProgramKey == d.ProgramKey {
		t.Fatal("different targets produced the same program fingerprint")
	}
	// The machine models genuinely differ: the 4-wide issue estimates the
	// same code as at least as cheap as the dual-issue default.
	if w.CostAfter > d.CostAfter {
		t.Fatalf("wide4 cost %d > mpc7410 cost %d", w.CostAfter, d.CostAfter)
	}
}

func TestTargetsHaveIsolatedCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := func(target string) ScheduleRequest {
		return ScheduleRequest{ProgramInput: ProgramInput{Source: testSource, Target: target}}
	}
	// Warm the default target's cache.
	post[ScheduleResponse](t, ts.URL+"/v1/schedule", req(""))
	// The first wide4 request must still be a cold miss: its cache is its
	// own, not the default target's.
	code, w := post[ScheduleResponse](t, ts.URL+"/v1/schedule", req("wide4"))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if w.CacheMisses == 0 {
		t.Fatalf("wide4 request hit another target's cache: %+v", w)
	}
	if s.CacheFor("wide4") == nil || s.CacheFor("mpc7410") == nil {
		t.Fatal("CacheFor lost a registered target")
	}
	if s.CacheFor("wide4") == s.CacheFor("mpc7410") {
		t.Fatal("targets share one cache instance")
	}
	if s.CacheFor("nope") != nil {
		t.Fatal("CacheFor(nope) returned a cache")
	}
	// Per-target metrics expose both caches' traffic.
	if v := scrape(t, ts.URL, `codecache_target_misses_total{target="wide4"}`); v == 0 {
		t.Fatal("wide4 cache misses not visible in /metrics")
	}
}

func TestUnknownTargetRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"compile", "schedule", "predict", "execute"} {
		code, resp := post[ErrorResponse](t, ts.URL+"/v1/"+path, ScheduleRequest{
			ProgramInput: ProgramInput{Source: testSource, Target: "z80"},
		})
		if code != 400 {
			t.Errorf("%s: status %d for unknown target, want 400", path, code)
		}
		if !strings.Contains(resp.Error, "z80") || !strings.Contains(resp.Error, "mpc7410") {
			t.Errorf("%s: error should name the bad and known targets: %q", path, resp.Error)
		}
	}
}

func TestExecuteTargetChangesCycles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(target string) ExecuteResponse {
		code, r := post[ExecuteResponse](t, ts.URL+"/v1/execute", ExecuteRequest{
			ProgramInput: ProgramInput{Source: testSource, Target: target, Policy: "LS"},
		})
		if code != 200 {
			t.Fatalf("execute on %q: status %d", target, code)
		}
		return r
	}
	def := run("")
	narrow := run("scalar1")
	if def.Ret != narrow.Ret {
		t.Fatalf("functional result depends on target: %d vs %d", def.Ret, narrow.Ret)
	}
	if narrow.Cycles < def.Cycles {
		t.Fatalf("single-issue scalar1 ran faster (%d) than dual-issue default (%d)", narrow.Cycles, def.Cycles)
	}
	if def.Target != "mpc7410" || narrow.Target != "scalar1" {
		t.Fatalf("responses mislabel targets: %q, %q", def.Target, narrow.Target)
	}
}

func TestMethodRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on compile endpoint: status %d, want 405", resp.StatusCode)
	}
}

// Backpressure: with the single worker blocked and the queue full, a new
// request must be rejected immediately with 429, and the rejection must
// show up in the endpoint counters.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	// If an assertion below fails, the blocked jobs must still be released
	// or the server's own cleanup deadlocks in pool.Close. Cleanups run
	// LIFO, so this fires before newTestServer's Server.Close.
	t.Cleanup(openGate)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one running, one queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Do is fail-fast: until the worker dequeues the first job, the
			// queue is full and a second submission bounces with ErrBusy.
			for s.pool.Do(context.Background(), func() { <-gate }) == ErrBusy {
				time.Sleep(time.Millisecond)
			}
		}()
	}
	waitFor(t, func() bool { return s.pool.Inflight() == 1 && s.pool.QueueDepth() == 1 })

	code, resp := post[ErrorResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
		ProgramInput: ProgramInput{Source: testSource},
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if resp.Error == "" {
		t.Fatal("429 without an error body")
	}
	openGate()
	wg.Wait()
	if rejected := scrape(t, ts.URL, `schedserved_requests_total{endpoint="schedule",outcome="rejected"}`); rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected)
	}
}

// Graceful shutdown: Close must let queued and in-flight work finish, and
// later submissions must fail with ErrClosed (503 at the HTTP layer).
func TestCloseDrainsInflight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	var done [3]bool
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < len(done); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = s.pool.Do(context.Background(), func() {
				<-gate
				done[i] = true
			})
		}(i)
	}
	waitFor(t, func() bool { return s.pool.Inflight()+s.pool.QueueDepth() == len(done) })
	close(gate)
	s.Close()
	wg.Wait()
	for i, d := range done {
		if !d {
			t.Fatalf("job %d dropped during drain", i)
		}
	}
	if err := s.pool.Do(context.Background(), func() {}); err != ErrClosed {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}

// A request whose client goes away while it waits for a slot leaves the
// queue without running: nothing is compiled, the queue empties, and the
// endpoint counts a 503.
func TestCancelledWhileQueuedNeverRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	held := make(chan error, 1)
	go func() { held <- s.pool.Do(context.Background(), func() { <-gate }) }()
	waitFor(t, func() bool { return s.pool.Inflight() == 1 })

	body, err := json.Marshal(ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })
	cancel()
	if err := <-sent; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want context.Canceled", err)
	}
	waitFor(t, func() bool {
		return scrape(t, ts.URL, `schedserved_requests_total{endpoint="schedule",outcome="server_error"}`) == 1
	})
	if d := s.pool.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the cancelled request left, want 0", d)
	}
	openGate()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := s.memo.stats(); st.hits+st.misses != 0 {
		t.Fatalf("cancelled request compiled its source (memo hits %d, misses %d)", st.hits, st.misses)
	}
}

// Concurrent mixed traffic under -race: many clients, several endpoints,
// one shared cache.
func TestConcurrentTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var code int
				switch (c + i) % 3 {
				case 0:
					code, _ = post[ScheduleResponse](t, ts.URL+"/v1/schedule",
						ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}})
				case 1:
					code, _ = post[PredictResponse](t, ts.URL+"/v1/predict",
						PredictRequest{ProgramInput: ProgramInput{Source: testSource}})
				default:
					code, _ = post[CompileResponse](t, ts.URL+"/v1/compile",
						CompileRequest{ProgramInput: ProgramInput{Source: testSource}})
				}
				if code != 200 {
					errs <- fmt.Errorf("client %d req %d: status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shared cache converged: schedule requests after the first are
	// pure replays.
	if hits := scrape(t, ts.URL, "codecache_hits_total"); hits == 0 {
		t.Fatal("no cache hits under repeated concurrent traffic")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScheduleConcurrentDuplicatesCoalesce drives a stampede of identical
// schedule requests straight at the handler (bypassing the HTTP pool so
// concurrency is real) and verifies the singleflight layer: exactly one
// request runs the pass while every other shares it, every response is
// identical where determinism demands it, and the coalescing shows up on
// /metrics. The flight hook holds the leader inside its pass until all
// followers have registered, so the coalescing count is deterministic
// rather than a race against a fast scheduling pass. Run under -race this
// also proves the flight's result sharing is properly synchronized.
func TestScheduleConcurrentDuplicatesCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const par = 16
	s.schedFlightHook = func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.flight.Stats().Coalesced < par-1 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	body, err := json.Marshal(ScheduleRequest{ProgramInput: ProgramInput{Workload: "compress"}})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]ScheduleResponse, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.doSchedule(context.Background(), body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = *v.(*ScheduleResponse)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("request errors above")
	}
	base := results[0]
	coalesced := 0
	for i, r := range results {
		if r.CacheHits+r.CacheMisses != r.Scheduled {
			t.Fatalf("request %d: hits %d + misses %d != scheduled %d",
				i, r.CacheHits, r.CacheMisses, r.Scheduled)
		}
		if r.ProgramKey != base.ProgramKey || r.Blocks != base.Blocks ||
			r.Scheduled != base.Scheduled || r.NotScheduled != base.NotScheduled ||
			r.CostBefore != base.CostBefore || r.CostAfter != base.CostAfter ||
			r.Changed != base.Changed {
			t.Fatalf("concurrent identical requests diverged:\n%+v\nvs\n%+v", r, base)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != par-1 {
		t.Fatalf("%d of %d responses coalesced, want %d", coalesced, par, par-1)
	}
	st := s.flight.Stats()
	if st.Leaders != 1 || st.Coalesced != par-1 {
		t.Fatalf("flight stats = %+v, want Leaders=1 Coalesced=%d", st, par-1)
	}
	if got := scrape(t, ts.URL, "codecache_coalesced_total"); got != st.Coalesced {
		t.Fatalf("codecache_coalesced_total = %d, flight reports %d", got, st.Coalesced)
	}
	if got := scrape(t, ts.URL, "codecache_flight_leaders_total"); got != st.Leaders {
		t.Fatalf("codecache_flight_leaders_total = %d, flight reports %d", got, st.Leaders)
	}
}

// TestExecuteConcurrentDuplicates checks the execute path under the same
// stampede: followers wait out the leader's pass, simulate its scheduled
// program, and report identical results.
func TestExecuteConcurrentDuplicates(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body, err := json.Marshal(ExecuteRequest{ProgramInput: ProgramInput{Source: testSource}})
	if err != nil {
		t.Fatal(err)
	}
	const par = 8
	results := make([]ExecuteResponse, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.doExecute(context.Background(), body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = *v.(*ExecuteResponse)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("request errors above")
	}
	base := results[0]
	for i, r := range results {
		if r.Ret != base.Ret || r.Cycles != base.Cycles || r.DynInstrs != base.DynInstrs ||
			r.Scheduled != base.Scheduled {
			t.Fatalf("request %d: concurrent identical executes diverged:\n%+v\nvs\n%+v", i, r, base)
		}
		if r.CacheHits+r.CacheMisses != r.Scheduled {
			t.Fatalf("request %d: hits %d + misses %d != scheduled %d",
				i, r.CacheHits, r.CacheMisses, r.Scheduled)
		}
	}
}

// TestExecuteStampedeSharesLeaderPass holds a flight leader until every
// other identical /v1/execute request has joined it, then checks that the
// stampede cost one scheduling pass: the pass totals and the block cache
// moved by one pass, and every follower simulated the leader's program.
// The first stampede is a source the server has never seen; the second
// is the same, now memoized, source under a policy it has no record for.
func TestExecuteStampedeSharesLeaderPass(t *testing.T) {
	s, ts := newTestServer(t, Config{Filter: factoryPolicy(t)})
	const par = 8
	var joined atomic.Int64
	s.schedFlightHook = func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.flight.Stats().Coalesced < joined.Load() && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	blocks := int64(compileSource(t, workloads.ByName("compress").Source).NumBlocks())
	for _, policySpec := range []string{"", "always"} {
		body, err := json.Marshal(ExecuteRequest{ProgramInput: ProgramInput{Workload: "compress", Policy: policySpec}})
		if err != nil {
			t.Fatal(err)
		}
		seen := scrape(t, ts.URL, "schedserved_sched_blocks_seen_total")
		lookups := scrape(t, ts.URL, "codecache_hits_total") + scrape(t, ts.URL, "codecache_misses_total")
		joined.Store(s.flight.Stats().Coalesced + par - 1)
		results := make([]ExecuteResponse, par)
		var wg sync.WaitGroup
		var failed atomic.Bool
		for i := 0; i < par; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := s.doExecute(context.Background(), body)
				if err != nil {
					t.Errorf("policy %q request %d: %v", policySpec, i, err)
					failed.Store(true)
					return
				}
				results[i] = *v.(*ExecuteResponse)
			}(i)
		}
		wg.Wait()
		if failed.Load() {
			t.Fatal("request errors above")
		}
		if got := s.flight.Stats().Coalesced; got != joined.Load() {
			t.Fatalf("policy %q: %d requests coalesced in all, want %d", policySpec, got, joined.Load())
		}
		base := results[0]
		for i, r := range results {
			if r.Ret != base.Ret || r.Cycles != base.Cycles || r.DynInstrs != base.DynInstrs ||
				r.Scheduled != base.Scheduled {
				t.Fatalf("policy %q request %d: stampede replies diverged:\n%+v\nvs\n%+v", policySpec, i, r, base)
			}
		}
		if got := scrape(t, ts.URL, "schedserved_sched_blocks_seen_total") - seen; got != blocks {
			t.Errorf("policy %q: blocks seen rose by %d, want one pass's %d", policySpec, got, blocks)
		}
		got := scrape(t, ts.URL, "codecache_hits_total") + scrape(t, ts.URL, "codecache_misses_total") - lookups
		if got != int64(base.Scheduled) {
			t.Errorf("policy %q: cache lookups rose by %d, want one pass's %d", policySpec, got, base.Scheduled)
		}
	}
}

// TestExecuteCancelled checks that an execute whose request context is
// cancelled stops simulating promptly instead of running the program to
// the server's step bound.
func TestExecuteCancelled(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const spin = `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 2000000000; i = i + 1) { s = s + i; }
  return s;
}
`
	body, err := json.Marshal(ExecuteRequest{ProgramInput: ProgramInput{Source: spin}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.doExecute(ctx, body)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline error", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled execute took %v", d)
	}
}

// TestExecuteStepLimit checks that /v1/execute runs a program under the
// server's step bound, not the simulator's default: a spinning program
// is answered 400 with the step-limit error and counted as a client
// error.
func TestExecuteStepLimit(t *testing.T) {
	if executeStepLimit < 10*7_600_000 {
		t.Errorf("execute step bound %d is under 10 times bh's 7.6M instructions", executeStepLimit)
	}
	s, ts := newTestServer(t, Config{})
	s.stepLimit = 1 << 16
	const spin = `
func main() int {
  var s int = 0;
  while (true) { s = s + 1; }
  return s;
}
`
	code, resp := post[ErrorResponse](t, ts.URL+"/v1/execute", ExecuteRequest{ProgramInput: ProgramInput{Source: spin}, Untimed: true})
	if code != http.StatusBadRequest || !strings.Contains(resp.Error, "step limit (65536) exceeded") {
		t.Fatalf("spinning execute: status %d, %+v; want 400 with the step-limit error", code, resp)
	}
	if n := scrape(t, ts.URL, `schedserved_requests_total{endpoint="execute",outcome="client_error"}`); n != 1 {
		t.Errorf("execute client errors = %v, want 1", n)
	}
	code, ok := post[ExecuteResponse](t, ts.URL+"/v1/execute", ExecuteRequest{ProgramInput: ProgramInput{Source: testSource}, Untimed: true})
	if code != http.StatusOK || ok.DynInstrs == 0 {
		t.Fatalf("short execute under the bound: status %d, %+v", code, ok)
	}
}
