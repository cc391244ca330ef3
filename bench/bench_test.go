package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"schedfilter/internal/server"
)

// smoke is a short traced run over three programs, from this directory.
func smoke(t *testing.T, workload string, tamper func(any)) (*result, string, string) {
	t.Helper()
	cfg := config{
		workload:  workload,
		seed:      1,
		duration:  time.Second,
		trace:     tamper == nil,
		traceFile: filepath.Join(t.TempDir(), "trace.json"),
		root:      "..",
		programs:  []string{"compress", "javac", "jess"},
		tamper:    tamper,
	}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String(), cfg.traceFile
}

func TestWorkloadsPrintEveryMetricAndTraceNests(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		res, out, traceFile := smoke(t, w, nil)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed", w, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range append(b.EndToEnd, b.PerLayer...) {
			line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +-?[0-9.e+-]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if !line.MatchString(out) {
				t.Errorf("%s: no %q line with unit %q in:\n%s", w, m.Name, m.Unit, out)
			}
		}
		for _, m := range b.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: result line has %s = %+v, want unit %s", w, m.Name, got, m.Unit)
			}
		}
		checkSpans(t, w, traceFile)
	}
}

func checkSpans(t *testing.T, w, path string) {
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf, &tf); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	replays := 0
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			if s.Name == "replay.op" {
				replays++
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s: span %d (%s) has no parent %d", w, s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			t.Errorf("%s: span %d is in op %d, its parent in op %d", w, s.ID, s.Op, p.Op)
		}
		if p.Name == "replay.op" && (s.Start < p.Start || s.End > p.End) {
			t.Errorf("%s: %s [%d,%d] outside its replay.op [%d,%d]", w, s.Name, s.Start, s.End, p.Start, p.End)
		}
	}
	if replays == 0 {
		t.Errorf("%s: no replay.op spans", w)
	}
	if c := tf.Layers["replay_coverage"].Value; c < 0.9 {
		t.Errorf("%s: replay coverage %.3f, want >= 0.9", w, c)
	}
}

func TestWrongAnswersCountAsFailed(t *testing.T) {
	for w, tamper := range map[string]func(any){
		"schedule-warm":   func(r any) { r.(*server.ScheduleResponse).CostAfter++ },
		"schedule-unique": func(r any) { r.(*server.ScheduleResponse).CostAfter++ },
		"execute":         func(r any) { r.(*server.ExecuteResponse).Ret++ },
	} {
		res, _, _ := smoke(t, w, tamper)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted answers gave correct=%v, %d of %d failed", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
