package main

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"schedfilter/internal/httpc"
	"schedfilter/internal/online"
	"schedfilter/internal/server"
)

// TestLoadgenReportsOutcomes drives loadgen against an in-process online
// server: every line smoke.sh greps is there, and no timing is.
func TestLoadgenReportsOutcomes(t *testing.T) {
	s := server.New(server.Config{Node: "n1", Workers: 2, Online: true,
		OnlineOpts: online.Config{Targets: []string{"mpc7410"}}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := &client{Client: httpc.New(ts.URL, 0, 0)}

	var out bytes.Buffer
	if err := runLoadgen(c, []string{"-workload", "compress", "-n", "6", "-c", "2"}, &out); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		`(?m)^loadgen: 6 requests, 2 concurrent, prog=compress target=default policy=default$`,
		`(?m)^loadgen: ok 6, failed 0$`,
		// The first request runs the list scheduler; the later ones hit.
		`(?m)^loadgen: cache \+\d+ hits / \+[1-9]\d* misses \(hit rate \d+\.\d%\), scheduler runs \+[1-9]\d*$`,
		`(?m)^loadgen: filter mix: v1 "LS" ×6$`,
		`(?m)^loadgen: node mix: n1 ×6$`,
	} {
		if !regexp.MustCompile(want).MatchString(text) {
			t.Errorf("loadgen output lacks %s:\n%s", want, text)
		}
	}
	for _, gone := range []string{"req/s", "latency", "wall"} {
		if strings.Contains(text, gone) {
			t.Errorf("loadgen output still reports %q:\n%s", gone, text)
		}
	}
	if n := strings.Count(text, "\n"); n != 5 {
		t.Errorf("loadgen printed %d lines, want 5:\n%s", n, text)
	}
}
