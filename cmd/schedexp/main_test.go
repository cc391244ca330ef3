package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// paperOutput runs `-exp paper` once and returns its stdout to each
// test that reads it: the run takes seconds, and every test below
// checks a different part of the same output.
func paperOutput(t *testing.T) string {
	t.Helper()
	paperOnce.Do(func() {
		paperOut, paperErr = captureStdout(t, func() error { return run(options{exp: "paper"}) })
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return paperOut
}

var (
	paperOnce sync.Once
	paperOut  string
	paperErr  error
)

// -exp paper prints the static tables 1, 2 and 7 in full.
func TestRunStaticTables(t *testing.T) {
	out := paperOutput(t)
	for _, title := range []string{"Table 1: ", "Table 2: ", "Table 7: "} {
		i := strings.Index(out, title)
		if i < 0 {
			t.Fatalf("output lacks %q", title)
		}
		table, _, _ := strings.Cut(out[i:], "\n\n")
		if len(table) < 100 {
			t.Errorf("%s is implausibly short:\n%s", title, table)
		}
	}
}

// -exp paper prints Table 5's constant NS line.
func TestRunTable5EndToEnd(t *testing.T) {
	if out := paperOutput(t); !strings.Contains(out, "NS is constant") {
		t.Errorf("output missing Table 5's NS-constant line:\n%s", out)
	}
}

// -exp paper prints Figure 4's rule set.
func TestRunFigure4EndToEnd(t *testing.T) {
	if out := paperOutput(t); !strings.Contains(out, "list :-") || !strings.Contains(out, "orig :- .") {
		t.Errorf("output lacks Figure 4's rule-set lines:\n%s", out)
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
	orig := readArtifact(t, "BENCH_targets.json")
	check := func(content []byte) (string, error) { return checkCopy(t, "targets", "BENCH_targets.json", content) }

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

// A hand-edited number in the paper's artifact, Table 5's constant NS,
// fails the gate, which names its key.
func TestCheckGatePaper(t *testing.T) {
	orig := readArtifact(t, "BENCH_paper.json")
	edited := bytes.Replace(orig, []byte(`"NS": 2049`), []byte(`"NS": 2050`), 1)
	if bytes.Equal(edited, orig) {
		t.Fatal("BENCH_paper.json has no Table 5 NS count to edit")
	}
	out, err := checkCopy(t, "paper", "BENCH_paper.json", edited)
	if err == nil || !strings.Contains(out, "FAIL BENCH_paper.json: deterministic.table5.NS differs") {
		t.Errorf("edited deterministic value: err %v, output %q", err, out)
	}
}

// readArtifact reads a checked-in BENCH_*.json file.
func readArtifact(t *testing.T, file string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// checkCopy runs `-exp exp -check` in a temp directory holding content
// as file, or no file when content is nil, and returns its output.
func checkCopy(t *testing.T, exp, file string, content []byte) (string, error) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if content != nil {
		if err := os.WriteFile(filepath.Join(dir, file), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	return captureStdout(t, func() error { return run(options{exp: exp, check: true}) })
}
