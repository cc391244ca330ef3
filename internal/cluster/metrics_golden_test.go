package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedfilter/internal/server"
)

// stripValues reduces a /metrics exposition to its shape: every # TYPE
// line and every sample's name and label set, in render order, with the
// values and # HELP lines dropped.
func stripValues(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "", strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "#"):
			b.WriteString(line)
		default:
			b.WriteString(line[:strings.LastIndexByte(line, ' ')])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsGolden pins both daemons' /metrics shape (every series name
// and label set and every # TYPE line, values stripped) against files
// recorded before the gateway and the server shared their endpoint
// metrics. Every endpoint of both daemons serves one request first, with
// online learning off and on.
func TestMetricsGolden(t *testing.T) {
	for _, mode := range []struct {
		name   string
		online bool
	}{{"static", false}, {"online", true}} {
		t.Run(mode.name, func(t *testing.T) {
			tc := newTestCluster(t, 2, mode.online, nil)
			in := server.ProgramInput{Source: testProgram(1)}
			compilePath := []struct {
				path string
				req  any
			}{
				{"/v1/compile", server.CompileRequest{ProgramInput: in}},
				{"/v1/schedule", server.ScheduleRequest{ProgramInput: in}},
				{"/v1/predict", server.PredictRequest{ProgramInput: in}},
				{"/v1/execute", server.ExecuteRequest{ProgramInput: in}},
				{"/v1/retrain", server.RetrainRequest{Target: "mpc7410"}},
				{"/v1/filters/1/activate", server.FilterActionRequest{}},
				{"/v1/filters/rollback", server.FilterActionRequest{}},
			}
			// Backend n1 directly, then the gateway (which proxies to and
			// broadcasts over both backends).
			for _, base := range []string{tc.listens[0].URL, tc.gwts.URL} {
				for _, c := range compilePath {
					postVia(t, base, c.path, c.req)
				}
				for _, path := range []string{"/v1/filters", "/v1/policies", "/healthz"} {
					getVia(t, base, path)
				}
			}
			postVia(t, tc.gwts.URL, "/v1/batch", BatchRequest{Op: "schedule",
				Items: []json.RawMessage{mustJSON(server.ScheduleRequest{ProgramInput: in})}})
			getVia(t, tc.gwts.URL, "/v1/cluster")

			for _, d := range []struct{ daemon, base string }{
				{"server", tc.listens[0].URL},
				{"gateway", tc.gwts.URL},
			} {
				_, body := getVia(t, d.base, "/metrics")
				got := stripValues(string(body))
				path := filepath.Join("testdata", "metrics_"+d.daemon+"_"+mode.name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s /metrics shape differs from %s:\n%s", d.daemon, path, lineDiff(string(want), got))
				}
			}
		})
	}
}

// lineDiff lists the lines only one side has, marked - (want) and + (got).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			b.WriteString("+ " + l + "\n")
		}
	}
	if b.Len() == 0 {
		return "(same lines, different order)"
	}
	return b.String()
}
