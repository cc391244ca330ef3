package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"schedfilter/internal/workloads"
)

var updateReplies = flag.Bool("update-replies", false, "rewrite testdata/replies.golden from the current server")

// repliesStep is one request of the recorded sequence.
type repliesStep struct {
	path string
	req  any
}

// repliesSequence is the request sequence TestRepliesGolden records for
// one bundled program: first sightings, memo admission, warm and uncached
// passes under the factory filter, the fixed and threshold policies, a
// portfolio and a second target, per-block predictions, and executions.
func repliesSequence(name string) []repliesStep {
	in := func(policy, target string) ProgramInput {
		return ProgramInput{Workload: name, Policy: policy, Target: target}
	}
	var steps []repliesStep
	for i := 0; i < 2; i++ {
		steps = append(steps, repliesStep{"/v1/compile", CompileRequest{ProgramInput: in("", "")}})
	}
	for _, spec := range []string{"", "", "always", "never", "size:8", "cost:40", "portfolio:size:12+ls"} {
		steps = append(steps, repliesStep{"/v1/schedule", ScheduleRequest{ProgramInput: in(spec, "")}})
	}
	steps = append(steps,
		repliesStep{"/v1/schedule", ScheduleRequest{ProgramInput: in("", ""), NoCache: true}},
		repliesStep{"/v1/schedule", ScheduleRequest{ProgramInput: in("", "wide4")}},
		repliesStep{"/v1/schedule", ScheduleRequest{ProgramInput: in("cost:40", "wide4")}},
		repliesStep{"/v1/predict", PredictRequest{ProgramInput: in("", ""), Detail: true}},
		repliesStep{"/v1/predict", PredictRequest{ProgramInput: in("size:8", "")}},
		repliesStep{"/v1/execute", ExecuteRequest{ProgramInput: in("", "")}},
		repliesStep{"/v1/execute", ExecuteRequest{ProgramInput: in("", "")}},
		repliesStep{"/v1/execute", ExecuteRequest{ProgramInput: in("always", "wide4")}},
	)
	return steps
}

// normalizeReply decodes a reply and zeroes what varies from run to run:
// the wall-clock fields and the trace, which holds only an ID and span
// timings.
func normalizeReply(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode reply %q: %v", body, err)
	}
	for _, k := range []string{"compile_ns", "sched_ns", "sim_ns"} {
		if _, ok := v[k]; ok {
			v[k] = 0
		}
	}
	delete(v, "trace")
	return v
}

// TestRepliesGolden pins the decoded replies of /v1/compile, /v1/schedule,
// /v1/predict and /v1/execute for the bundled programs against a file
// recorded before warm requests reused memoized decisions and replies
// became compact: every value must decode as it did then, and only
// whitespace on the wire may differ.
func TestRepliesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every bundled program on the simulator")
	}
	_, ts := newTestServer(t, Config{Filter: factoryPolicy(t), Workers: 1})
	var got bytes.Buffer
	for _, w := range workloads.All() {
		for i, step := range repliesSequence(w.Name) {
			buf, err := json.Marshal(step.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+step.path, "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s step %d %s: status %d: %s", w.Name, i, step.path, resp.StatusCode, body)
			}
			line, err := json.Marshal(normalizeReply(t, body))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %d %s %s\n", w.Name, i, step.path, line)
		}
	}
	path := filepath.Join("testdata", "replies.golden")
	if *updateReplies {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}
