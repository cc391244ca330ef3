package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String(), ferr
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(options{exp: "tableX"}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunStaticTables(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "table7"} {
		out, err := captureStdout(t, func() error { return run(options{exp: exp}) })
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if len(out) < 100 {
			t.Errorf("%s produced implausibly short output:\n%s", exp, out)
		}
	}
}

func TestRunTable5EndToEnd(t *testing.T) {
	out, err := captureStdout(t, func() error { return run(options{exp: "table5"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NS is constant") {
		t.Errorf("table5 output missing the NS-constant line:\n%s", out)
	}
}

func TestRunFigure4EndToEnd(t *testing.T) {
	out, err := captureStdout(t, func() error { return run(options{exp: "fig4"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "list :-") || !strings.Contains(out, "orig :- .") {
		t.Errorf("fig4 output lacks rule-set lines:\n%s", out)
	}
}

// Flags only: a stray positional argument used to be ignored silently
// (`-json out.json` wrote BENCH_*.json, not out.json), and -check refuses
// the settings the checked-in artifacts were not made with.
func TestParseFlagsRefuses(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "adaptive", "-json", "out.json"},
		{"table3"},
		{"-check", "-target", "wide4"},
		{"-check", "-json"},
		{"-check", "-policy", "always"},
	} {
		if _, _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, _, err := parseFlags([]string{"-exp", "online", "-check", "-j", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "online" || !o.check || o.jobs != 4 {
		t.Errorf("parsed %+v", o)
	}
}

// The cluster verdicts: every node converges on one filter version, and
// every workload is served by the node the ring predicts for the key the
// gateway routes on (the request's policy included).
func TestClusterVerdicts(t *testing.T) {
	res, err := runCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged: versions %v", res.Versions)
	}
	if !res.RoutingDeterministic {
		t.Errorf("routing does not match the ring's prediction: %v", res.Routing)
	}
	if len(res.Routing) != len(res.Workloads) || res.BatchOK != len(res.Workloads) {
		t.Errorf("routing %d, batch %d ok, want %d each", len(res.Routing), res.BatchOK, len(res.Workloads))
	}
}

// The gate itself, on a temp copy of BENCH_targets.json: the checked-in
// file passes, a changed deterministic value fails and is named, a
// changed timing value passes, and a missing file fails.
func TestCheckGate(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("..", "..", "BENCH_targets.json"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	check := func(content []byte) (string, error) {
		dir := t.TempDir()
		if content != nil {
			if err := os.WriteFile(filepath.Join(dir, "BENCH_targets.json"), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		defer os.Chdir(wd)
		return captureStdout(t, func() error { return run(options{exp: "targets", check: true}) })
	}

	if out, err := check(orig); err != nil || !strings.HasPrefix(out, "ok   BENCH_targets.json") {
		t.Errorf("unmodified file: err %v, output %q", err, out)
	}

	edited := bytes.Replace(orig, []byte(`"threshold": 20`), []byte(`"threshold": 21`), 1)
	if bytes.Equal(edited, orig) {
		t.Fatal("BENCH_targets.json has no threshold to edit")
	}
	if out, err := check(edited); err == nil || !strings.Contains(out, "FAIL BENCH_targets.json: deterministic.threshold differs") {
		t.Errorf("edited deterministic value: err %v, output %q", err, out)
	}

	timed := bytes.Replace(orig, []byte(`{`), []byte(`{"timing": {"go": "go0.0", "cpus": 1024},`), 1)
	if out, err := check(timed); err != nil || !strings.HasPrefix(out, "ok   BENCH_targets.json") {
		t.Errorf("changed timing section: err %v, output %q", err, out)
	}

	if out, err := check(nil); err == nil || !strings.HasPrefix(out, "FAIL BENCH_targets.json") {
		t.Errorf("missing file: err %v, output %q", err, out)
	}
}
