package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

	"schedfilter/internal/machine"
	"schedfilter/internal/online"
	"schedfilter/internal/server"
)

func TestParseMembers(t *testing.T) {
	got, err := ParseMembers(" a=http://h1:1 , http://h2:2/ ,b=http://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "a", URL: "http://h1:1"},
		{Name: "h2:2", URL: "http://h2:2"},
		{Name: "b", URL: "http://h3:3"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("member %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "h1:1", "name=", "=http://h:1/x=y"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Fatalf("ParseMembers(%q) accepted", bad)
		}
	}
}

// testCluster is an in-process gateway over n live backends.
type testCluster struct {
	backends []*server.Server
	listens  []*httptest.Server
	names    []string
	gw       *Gateway
	gwts     *httptest.Server
}

func newTestCluster(t *testing.T, nodes int, learn bool, tweak func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	members := make([]Member, nodes)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		cfg := server.Config{Node: name}
		if learn {
			cfg.Online = true
			cfg.OnlineOpts = online.Config{
				Targets:    []string{machine.DefaultTargetName},
				MinSamples: 8,
			}
		}
		s := server.New(cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		tc.backends = append(tc.backends, s)
		tc.listens = append(tc.listens, ts)
		tc.names = append(tc.names, name)
		members[i] = Member{Name: name, URL: ts.URL}
	}
	cfg := Config{
		Members:       members,
		CheckInterval: 20 * time.Millisecond,
		HedgeAfter:    -1, // deterministic node attribution
	}
	if tweak != nil {
		tweak(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = gw
	tc.gwts = httptest.NewServer(gw.Handler())
	t.Cleanup(func() { tc.gwts.Close(); gw.Close() })
	return tc
}

func testProgram(i int) string {
	return fmt.Sprintf(`
func work(n int) int {
  var s int = %d;
  for (var i int = 0; i < n; i = i + 1) { s = s + i * 3 - (i / 2); }
  return s;
}
func main() int { return work(%d); }
`, i, 16+i)
}

// scheduleVia posts one schedule request and returns (status, node).
func scheduleVia(t *testing.T, base string, req any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Sched-Node")
}

func postVia(t *testing.T, base, path string, req any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getVia(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The acceptance property: routing is a deterministic function of the
// request's program content — the answering node equals the ring's
// predicted primary, request after request.
func TestRoutingDeterministic(t *testing.T) {
	tc := newTestCluster(t, 3, false, nil)
	hit := map[string]bool{}
	for i := 0; i < 12; i++ {
		src := testProgram(i)
		want := tc.gw.Preference(RoutingKey("", src, "", "LS"))[0]
		hit[want] = true
		for round := 0; round < 2; round++ {
			code, node := scheduleVia(t, tc.gwts.URL, server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Source: src, Policy: "LS"},
			})
			if code != 200 {
				t.Fatalf("program %d round %d: HTTP %d", i, round, code)
			}
			if node != want {
				t.Fatalf("program %d round %d served by %s, ring predicts %s", i, round, node, want)
			}
		}
	}
	if len(hit) < 2 {
		t.Fatalf("all 12 programs routed to one node — key spread broken (%v)", hit)
	}
}

// Killing a backend mid-stream must lose zero requests: in-window
// failures fail over down the preference order, and the health checker
// keeps the dead node out of rotation afterwards.
func TestKillNodeZeroRequestsLost(t *testing.T) {
	tc := newTestCluster(t, 3, false, func(c *Config) { c.Retries = 2 })
	const total = 60
	const clients = 4
	var (
		next   atomic.Int64
		done   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	// Kill n1 once a third of the stream has completed.
	killAt := int64(total / 3)
	var killOnce sync.Once
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				if done.Load() >= killAt {
					killOnce.Do(func() { tc.listens[0].Close() })
				}
				code, _ := scheduleVia(t, tc.gwts.URL, server.ScheduleRequest{
					ProgramInput: server.ProgramInput{Source: testProgram(int(i) % 10), Policy: "LS"},
				})
				if code != 200 {
					failed.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := failed.Load(); got != 0 {
		t.Fatalf("%d of %d requests failed after killing n1", got, total)
	}
	tc.gw.CheckNow()
	if n := tc.gw.healthyCount(); n != 2 {
		t.Fatalf("healthy count %d after kill, want 2", n)
	}
	// The survivors now cover n1's keys.
	for i := 0; i < 10; i++ {
		code, node := scheduleVia(t, tc.gwts.URL, server.ScheduleRequest{
			ProgramInput: server.ProgramInput{Source: testProgram(i), Policy: "LS"},
		})
		if code != 200 {
			t.Fatalf("post-kill program %d: HTTP %d", i, code)
		}
		if node == "n1" {
			t.Fatal("request routed to the dead node")
		}
	}
}

var metricRE = regexp.MustCompile(`(?m)^(\w+) (-?\d+)$`)

// metricValue scrapes one unlabelled counter off a /metrics page.
func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	_, body := getVia(t, base, "/metrics")
	for _, m := range metricRE.FindAllStringSubmatch(string(body), -1) {
		if m[1] == name {
			v, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	return 0
}

// The cluster acceptance property for the filter lifecycle: seed every
// node identically, retrain through the gateway, activate the induced
// candidate cluster-wide, and every healthy node must converge on the
// same filter version.
func TestRetrainActivateConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three online servers and retrains")
	}
	tc := newTestCluster(t, 3, true, nil)

	// Seed each backend directly (not via the gateway) so every
	// reservoir sees the identical sample stream.
	for i, ts := range tc.listens {
		for p := 0; p < 4; p++ {
			code, body := postVia(t, ts.URL, "/v1/schedule", server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Source: testProgram(p), Policy: "default"},
			})
			if code != 200 {
				t.Fatalf("seed %s program %d: HTTP %d: %s", tc.names[i], p, code, body)
			}
		}
		// Sample measurement is asynchronous; wait for the queue to drain
		// or the retrain below sees an empty reservoir.
		deadline := time.Now().Add(20 * time.Second)
		for {
			enq := metricValue(t, ts.URL, "online_blocks_enqueued_total")
			meas := metricValue(t, ts.URL, "online_samples_measured_total")
			if enq > 0 && meas >= enq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: measurement queue stuck at %d/%d", tc.names[i], meas, enq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	code, body := postVia(t, tc.gwts.URL, "/v1/retrain", server.RetrainRequest{})
	if code != 200 {
		t.Fatalf("retrain: HTTP %d: %s", code, body)
	}
	var bc BroadcastResponse
	if err := json.Unmarshal(body, &bc); err != nil {
		t.Fatal(err)
	}
	if bc.OK != 3 || bc.Failed != 0 {
		t.Fatalf("retrain reached %d ok / %d failed nodes: %s", bc.OK, bc.Failed, body)
	}
	candidate := 0
	for _, n := range bc.Nodes {
		var rr server.RetrainResponse
		if err := json.Unmarshal(n.Response, &rr); err != nil {
			t.Fatalf("%s retrain response: %v", n.Node, err)
		}
		for _, rep := range rr.Reports {
			if rep.Target == machine.DefaultTargetName && rep.Version > candidate {
				candidate = rep.Version
			}
		}
	}
	if candidate < 2 {
		t.Fatalf("retrain induced no new candidate (version %d)", candidate)
	}

	code, body = postVia(t, tc.gwts.URL, fmt.Sprintf("/v1/filters/%d/activate", candidate),
		server.FilterActionRequest{})
	if code != 200 {
		t.Fatalf("activate v%d: HTTP %d: %s", candidate, code, body)
	}

	code, body = getVia(t, tc.gwts.URL, "/v1/cluster")
	if code != 200 {
		t.Fatalf("cluster: HTTP %d", code)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Healthy != 3 {
		t.Fatalf("%d/3 healthy: %s", cr.Healthy, body)
	}
	found := false
	for _, conv := range cr.Convergence {
		if conv.Target != machine.DefaultTargetName {
			continue
		}
		found = true
		if !conv.Converged {
			t.Fatalf("not converged: %s", body)
		}
		if len(conv.Versions) != 3 {
			t.Fatalf("convergence covers %d nodes: %s", len(conv.Versions), body)
		}
		for node, v := range conv.Versions {
			if v != candidate {
				t.Fatalf("%s at v%d after activating v%d", node, v, candidate)
			}
		}
	}
	if !found {
		t.Fatalf("no convergence verdict for %s: %s", machine.DefaultTargetName, body)
	}
}

func TestBatchFansAcrossShards(t *testing.T) {
	tc := newTestCluster(t, 3, false, nil)
	items := make([]json.RawMessage, 9)
	for i := range items {
		buf, err := json.Marshal(server.ScheduleRequest{
			ProgramInput: server.ProgramInput{Source: testProgram(i), Policy: "LS"},
		})
		if err != nil {
			t.Fatal(err)
		}
		items[i] = buf
	}
	code, body := postVia(t, tc.gwts.URL, "/v1/batch", BatchRequest{Op: "schedule", Items: items})
	if code != 200 {
		t.Fatalf("batch: HTTP %d: %s", code, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.OK != len(items) || br.Failed != 0 {
		t.Fatalf("batch ok=%d failed=%d: %s", br.OK, br.Failed, body)
	}
	sum := 0
	for _, n := range br.Nodes {
		sum += n
	}
	if sum != len(items) {
		t.Fatalf("node tally %v covers %d items, want %d", br.Nodes, sum, len(items))
	}
	for i, item := range br.Items {
		if item.Index != i || item.Status != 200 || item.Node == "" {
			t.Fatalf("item %d = %+v", i, item)
		}
	}

	// Unknown ops and empty batches are client faults.
	if code, _ := postVia(t, tc.gwts.URL, "/v1/batch", BatchRequest{Op: "nope", Items: items}); code != 400 {
		t.Fatalf("bad op: HTTP %d", code)
	}
	if code, _ := postVia(t, tc.gwts.URL, "/v1/batch", BatchRequest{Op: "schedule"}); code != 400 {
		t.Fatalf("empty batch: HTTP %d", code)
	}
}

// TestBatchCoalescesDuplicates posts a batch whose items repeat: only the
// distinct bodies may be forwarded, duplicates replicate their group's
// response verbatim, and the dedupe is visible in the response and on
// /metrics.
func TestBatchCoalescesDuplicates(t *testing.T) {
	tc := newTestCluster(t, 2, false, nil)
	// Three distinct programs repeated 4+3+1 times: 8 items, 3 forwards.
	shape := []int{0, 1, 0, 2, 1, 0, 1, 0}
	unique := 3
	items := make([]json.RawMessage, len(shape))
	for i, p := range shape {
		buf, err := json.Marshal(server.ScheduleRequest{
			ProgramInput: server.ProgramInput{Source: testProgram(p), Policy: "LS"},
		})
		if err != nil {
			t.Fatal(err)
		}
		items[i] = buf
	}
	code, body := postVia(t, tc.gwts.URL, "/v1/batch", BatchRequest{Op: "schedule", Items: items})
	if code != 200 {
		t.Fatalf("batch: HTTP %d: %s", code, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.OK != len(items) || br.Failed != 0 {
		t.Fatalf("batch ok=%d failed=%d: %s", br.OK, br.Failed, body)
	}
	if br.Coalesced != len(items)-unique {
		t.Fatalf("coalesced = %d, want %d", br.Coalesced, len(items)-unique)
	}
	// Every duplicate must carry its representative's answer: same node,
	// byte-identical response, and the coalesced flag on all but the first
	// occurrence of each program.
	first := map[int]BatchItemResult{}
	for i, item := range br.Items {
		if item.Status != 200 || item.Index != i {
			t.Fatalf("item %d = %+v", i, item)
		}
		rep, dup := first[shape[i]]
		if !dup {
			if item.Coalesced {
				t.Fatalf("item %d is its program's first occurrence but reports coalesced", i)
			}
			first[shape[i]] = item
			continue
		}
		if !item.Coalesced {
			t.Fatalf("item %d repeats item %d but reports coalesced=false", i, rep.Index)
		}
		if item.Node != rep.Node || !bytes.Equal(item.Response, rep.Response) {
			t.Fatalf("item %d diverged from its representative %d:\n%+v\nvs\n%+v", i, rep.Index, item, rep)
		}
	}
	// Only the unique bodies crossed the wire to backends.
	forwarded := int64(0)
	for _, n := range tc.gw.Routed() {
		forwarded += n
	}
	if forwarded != int64(unique) {
		t.Fatalf("backends saw %d attempts, want %d", forwarded, unique)
	}
	if got := metricValue(t, tc.gwts.URL, "schedgate_batch_coalesced_total"); got != int64(br.Coalesced) {
		t.Fatalf("schedgate_batch_coalesced_total = %d, want %d", got, br.Coalesced)
	}
	if got := metricValue(t, tc.gwts.URL, "schedgate_batch_items_total"); got != int64(len(items)) {
		t.Fatalf("schedgate_batch_items_total = %d, want %d", got, len(items))
	}
}

// A draining backend (503 on /healthz before its listener closes) must
// leave the rotation and take zero traffic while it finishes in-flight
// work.
func TestDrainingBackendLeavesRotation(t *testing.T) {
	tc := newTestCluster(t, 3, false, nil)
	tc.backends[1].BeginDrain()
	tc.gw.CheckNow()
	if n := tc.gw.healthyCount(); n != 2 {
		t.Fatalf("healthy count %d with n2 draining, want 2", n)
	}
	for i := 0; i < 12; i++ {
		code, node := scheduleVia(t, tc.gwts.URL, server.ScheduleRequest{
			ProgramInput: server.ProgramInput{Source: testProgram(i), Policy: "LS"},
		})
		if code != 200 {
			t.Fatalf("program %d: HTTP %d", i, code)
		}
		if node == "n2" {
			t.Fatal("request routed to the draining node")
		}
	}
	// The cluster report still identifies the node and why it is out.
	_, body := getVia(t, tc.gwts.URL, "/v1/cluster")
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	for _, m := range cr.Members {
		if m.Name == "n2" {
			if m.Healthy || !m.Draining {
				t.Fatalf("n2 status %+v, want unhealthy + draining", m)
			}
		}
	}
}

func TestGatewayDrainFlipsHealthz(t *testing.T) {
	tc := newTestCluster(t, 1, false, nil)
	code, body := getVia(t, tc.gwts.URL, "/healthz")
	if code != 200 {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var h GatewayHealth
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Members != 1 || h.Healthy != 1 {
		t.Fatalf("health %+v", h)
	}
	tc.gw.BeginDrain()
	code, body = getVia(t, tc.gwts.URL, "/healthz")
	if code != 503 {
		t.Fatalf("draining healthz: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining health %+v", h)
	}
}

// TestDaemonsDrainOrder runs both daemons through the shared
// ListenAndServe lifecycle: /healthz answers 200, flips to 503 while
// the listener still accepts, the listener then closes, and the daemon
// closes last.
func TestDaemonsDrainOrder(t *testing.T) {
	backend := newTestCluster(t, 1, false, nil)
	for _, d := range []struct {
		name   string
		serve  func(ctx context.Context, addr string, drain time.Duration) error
		closed func() bool
	}{
		{"schedserved", backend.backends[0].ListenAndServe, func() bool {
			// A closed pool refuses work with 503.
			code, _ := scheduleVia(t, backend.listens[0].URL, server.ScheduleRequest{
				ProgramInput: server.ProgramInput{Source: testProgram(1)}})
			return code == http.StatusServiceUnavailable
		}},
		{"schedgate", backend.gw.ListenAndServe, func() bool {
			select {
			case <-backend.gw.stop:
				return true
			default:
				return false
			}
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- d.serve(ctx, addr, 5*time.Second) }()
			base := "http://" + addr
			var resp *http.Response
			for i := 0; i < 200; i++ {
				if resp, err = http.Get(base + "/healthz"); err == nil {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("%s never came up on %s: %v", d.name, addr, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz before drain: HTTP %d", resp.StatusCode)
			}
			if d.closed() {
				t.Fatal("closed before shutdown began")
			}
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
			if d.closed() {
				t.Fatal("closed during the drain notice")
			}
			if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
				t.Fatalf("ListenAndServe: %v", err)
			}
			if _, err := http.Get(base + "/healthz"); err == nil {
				t.Fatal("listener still accepting after ListenAndServe returned")
			}
			if !d.closed() {
				t.Fatal("not closed after ListenAndServe returned")
			}
		})
	}
}

func TestNoHealthyBackends(t *testing.T) {
	tc := newTestCluster(t, 1, false, func(c *Config) { c.Retries = 0 })
	tc.listens[0].Close()
	tc.gw.CheckNow()
	code, _ := scheduleVia(t, tc.gwts.URL, server.ScheduleRequest{
		ProgramInput: server.ProgramInput{Source: testProgram(0), Policy: "LS"},
	})
	if code != 503 {
		t.Fatalf("HTTP %d with zero healthy backends, want 503", code)
	}
}

func TestNewRejectsDuplicateNames(t *testing.T) {
	_, err := New(Config{Members: []Member{
		{Name: "a", URL: "http://h:1"},
		{Name: "a", URL: "http://h:2"},
	}})
	if err == nil {
		t.Fatal("duplicate member names accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty member set accepted")
	}
}

// A gateway-wide default policy rewrites requests that pin nothing;
// requests that pin their own policy pass through untouched, and a
// request still carrying the retired "filter" selector is refused.
func TestDefaultPolicyInjection(t *testing.T) {
	tc := newTestCluster(t, 2, false, func(c *Config) { c.DefaultPolicy = "never" })

	post := func(req any) server.ScheduleResponse {
		t.Helper()
		status, body := postVia(t, tc.gwts.URL, "/v1/schedule", req)
		if status != http.StatusOK {
			t.Fatalf("schedule: HTTP %d: %s", status, body)
		}
		var resp server.ScheduleResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	unpinned := post(server.ScheduleRequest{
		ProgramInput: server.ProgramInput{Source: testProgram(0)},
	})
	if unpinned.PolicyID != "NS" {
		t.Errorf("unpinned request should serve the gateway default: policy %q id %q, want id NS",
			unpinned.Policy, unpinned.PolicyID)
	}

	pinned := post(server.ScheduleRequest{
		ProgramInput: server.ProgramInput{Source: testProgram(0), Policy: "always"},
	})
	if pinned.PolicyID != "LS" {
		t.Errorf("pinned policy should pass through: policy %q id %q, want id LS",
			pinned.Policy, pinned.PolicyID)
	}

	status, body := postVia(t, tc.gwts.URL, "/v1/schedule",
		map[string]string{"source": testProgram(0), "filter": "size:7"})
	if status != http.StatusBadRequest || !strings.Contains(string(body), `\"filter\"`) {
		t.Errorf("filter-only request: HTTP %d: %s; want 400 naming the field", status, body)
	}
}

// Through the gateway, a request carrying only the retired "filter"
// selector gets the backend's 400 naming the field on every compile
// endpoint, instead of the default policy.
func TestFilterFieldRejected(t *testing.T) {
	tc := newTestCluster(t, 3, false, nil)
	for _, ep := range []string{"compile", "schedule", "predict", "execute"} {
		status, body := postVia(t, tc.gwts.URL, "/v1/"+ep,
			map[string]string{"source": testProgram(0), "filter": "LS"})
		if status != http.StatusBadRequest || !strings.Contains(string(body), `\"filter\"`) {
			t.Errorf("%s: filter-only request: HTTP %d: %s; want 400 naming the field", ep, status, body)
		}
	}
}
