package obs

import (
	"strings"
	"testing"
	"time"
)

// TestEndpointMetricsOutcomes pins the outcome split: a 429 is rejected
// only where the family has a rejected series, a client_error
// otherwise, and records against an unregistered name reach nothing.
func TestEndpointMetricsOutcomes(t *testing.T) {
	for _, withRejected := range []bool{true, false} {
		r := NewRegistry()
		eps := r.EndpointMetrics("d", "handler", withRejected, "b", "a")
		for _, status := range []int{200, 201, 404, 429, 503} {
			eps.Get("a").Record(status, time.Millisecond)
		}
		eps.Get("nope").Record(200, time.Second)
		e, err := ParseExposition(r.RenderString())
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{"ok": 2, "client_error": 2, "server_error": 1}
		if withRejected {
			want["client_error"], want["rejected"] = 1, 1
		}
		for _, s := range e.Family("d_requests_total") {
			if s.Labels["endpoint"] != "a" {
				continue
			}
			if got := s.Value; got != want[s.Labels["outcome"]] {
				t.Errorf("withRejected=%v %v = %v, want %v", withRejected, s.Labels, got, want[s.Labels["outcome"]])
			}
			delete(want, s.Labels["outcome"])
		}
		if len(want) != 0 {
			t.Errorf("withRejected=%v: missing outcome series %v", withRejected, want)
		}
		if v, _ := e.Value("d_latency_ns_sum", map[string]string{"endpoint": "a"}); v != float64(2*time.Millisecond) {
			t.Errorf("latency sum = %v, want two successes of 1ms", v)
		}
		if text := r.RenderString(); strings.Contains(text, "nope") {
			t.Errorf("unregistered endpoint reached the exposition:\n%s", text)
		}
	}
}
