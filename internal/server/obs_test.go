package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"schedfilter/internal/obs"
)

// TestMetricNameCompat locks the pre-refactor metric names byte for
// byte: every sample line the old hand-rolled renderers emitted (and
// smoke.sh / loadgen scrape) must still appear, with identical label
// spellings, now that everything routes through the shared registry.
func TestMetricNameCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{Node: "n1", Workers: 2})
	// Drive one request through the compile path so the counters move.
	if code, _ := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
		ProgramInput: ProgramInput{Source: testSource},
	}); code != 200 {
		t.Fatalf("schedule status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	want := []string{
		// Per-endpoint counters, every outcome label.
		`schedserved_requests_total{endpoint="schedule",outcome="ok"} `,
		`schedserved_requests_total{endpoint="schedule",outcome="client_error"} `,
		`schedserved_requests_total{endpoint="schedule",outcome="rejected"} `,
		`schedserved_requests_total{endpoint="schedule",outcome="server_error"} `,
		`schedserved_requests_total{endpoint="compile",outcome="ok"} `,
		`schedserved_latency_ns_sum{endpoint="schedule"} `,
		`schedserved_latency_ns_max{endpoint="schedule"} `,
		// Scheduling-pass totals.
		"schedserved_sched_blocks_seen_total ",
		"schedserved_sched_blocks_scheduled_total ",
		"schedserved_scheduler_runs_total ",
		"schedserved_sched_cache_hits_total ",
		"schedserved_sched_time_ns_total ",
		// Compiled-program memo.
		"schedserved_compile_memo_hits_total ",
		"schedserved_compile_memo_misses_total ",
		"schedserved_compile_memo_evictions_total ",
		"schedserved_compile_memo_bytes ",
		// Cache aggregates + per-target breakout + flight.
		"codecache_hits_total ",
		"codecache_misses_total ",
		"codecache_inserts_total ",
		"codecache_evictions_total ",
		"codecache_collisions_total ",
		"codecache_entries ",
		"codecache_weight_words ",
		"codecache_coalesced_total ",
		"codecache_flight_leaders_total ",
		`codecache_target_hits_total{target="mpc7410"} `,
		`codecache_target_misses_total{target="mpc7410"} `,
		`codecache_target_entries{target="mpc7410"} `,
		// Identity / lifecycle / pool gauges.
		`schedserved_node_info{node="n1"} 1`,
		"schedserved_draining 0",
		"schedserved_pool_workers ",
		"schedserved_pool_queue_capacity ",
		"schedserved_pool_queue_depth ",
		"schedserved_pool_inflight ",
		"schedserved_uptime_seconds ",
		// The new phase histograms are present alongside.
		`schedserved_phase_ns_bucket{phase="compile",le="+Inf"} `,
		`schedserved_phase_ns_bucket{phase="fingerprint",le="+Inf"} `,
		`schedserved_request_latency_ns_count{endpoint="schedule"} `,
	}
	for _, w := range want {
		if !strings.Contains(text, "\n"+w) && !strings.HasPrefix(text, w) {
			t.Errorf("metric line %q missing from /metrics", w)
		}
	}
	// The exposition parses cleanly end to end.
	if _, err := obs.ParseExposition(text); err != nil {
		t.Errorf("exposition does not parse: %v", err)
	}
}

// TestOnlineMetricNameCompat locks the online_* names (emitted only
// when the learning loop is on).
func TestOnlineMetricNameCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{Online: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, w := range []string{
		"online_blocks_observed_total ",
		"online_blocks_known_total ",
		"online_blocks_enqueued_total ",
		"online_blocks_dropped_total ",
		"online_samples_measured_total ",
		"online_retrains_total ",
		"online_promotions_total ",
		"online_rejections_total ",
		"online_activations_total ",
		"online_rollbacks_total ",
		`online_active_filter_version{target="mpc7410"} `,
		`online_filter_versions{target="mpc7410"} `,
		`online_reservoir_samples{target="mpc7410"} `,
	} {
		if !strings.Contains(text, "\n"+w) {
			t.Errorf("online metric line %q missing from /metrics", w)
		}
	}
}

// TestTraceInResponse pins the trace contract on a directly-hit server:
// the inbound X-Sched-Trace ID is adopted, echoed on the response
// header, embedded in the body, and the span durations never sum past
// the measured total.
func TestTraceInResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/schedule", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, "trace-compat-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "trace-compat-01" {
		t.Errorf("response %s header = %q, want trace-compat-01", obs.TraceHeader, got)
	}
	var sr ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Trace == nil {
		t.Fatal("response carries no trace")
	}
	if sr.Trace.ID != "trace-compat-01" {
		t.Errorf("trace id = %q", sr.Trace.ID)
	}
	if sr.Trace.TotalNs <= 0 {
		t.Errorf("trace total = %d", sr.Trace.TotalNs)
	}
	var sum int64
	seen := map[string]bool{}
	for _, sp := range sr.Trace.Spans {
		sum += sp.Ns
		seen[sp.Phase] = true
	}
	if sum > sr.Trace.TotalNs {
		t.Errorf("spans sum %d > total %d", sum, sr.Trace.TotalNs)
	}
	for _, ph := range []string{obs.PhaseQueueWait, obs.PhaseCompile, obs.PhaseFingerprint} {
		if !seen[ph] {
			t.Errorf("span %q missing: %+v", ph, sr.Trace.Spans)
		}
	}
	// A schedule pass over real blocks must attribute scheduler phases.
	if !seen[obs.PhaseDAGBuild] && !seen[obs.PhaseCacheLookup] {
		t.Errorf("no scheduler phase spans recorded: %+v", sr.Trace.Spans)
	}

	// An invalid inbound ID gets replaced with a freshly minted one.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/schedule", bytes.NewReader(body))
	req2.Header.Set(obs.TraceHeader, "not valid!!")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if id := resp2.Header.Get(obs.TraceHeader); !obs.ValidTraceID(id) || id == "not valid!!" {
		t.Errorf("minted trace id = %q", id)
	}

	// The spans landed in the phase histograms.
	if n := scrape(t, ts.URL, `schedserved_phase_ns_count{phase="compile"}`); n == 0 {
		t.Error("compile phase histogram empty after traced requests")
	}
}
