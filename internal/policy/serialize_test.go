package policy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStderr runs f with os.Stderr redirected to a pipe and returns
// what it wrote — the mismatch warnings are stderr text, not errors.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	f()
	w.Close()
	os.Stderr = old
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := r.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return b.String()
}

func writeModel(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The clean round trip: FormatInduced → file → LoadInducedFor under the
// same target reproduces the filter exactly and warns about nothing.
func TestLoadInducedForRoundTrip(t *testing.T) {
	orig := NewInducedFor(testRules(), "L/N@t=20", "mpc7410")
	path := writeModel(t, FormatInduced(orig))

	var got *Induced
	var err error
	warnings := captureStderr(t, func() { got, err = LoadInducedFor(path, "mpc7410") })
	if err != nil {
		t.Fatal(err)
	}
	if warnings != "" {
		t.Errorf("matching kind and target should load silently, got: %s", warnings)
	}
	if got.Label != orig.Label || got.Target != orig.Target {
		t.Errorf("provenance lost in round trip: got %q/%q, want %q/%q",
			got.Label, got.Target, orig.Label, orig.Target)
	}
	if got.RuleHash() != orig.RuleHash() {
		t.Errorf("rule content changed in round trip: %s vs %s", got.RuleHash(), orig.RuleHash())
	}
	if ID(got) != ID(orig) {
		t.Errorf("identity changed in round trip: %s vs %s", ID(got), ID(orig))
	}
}

// A file declaring a non-ripper policy kind still loads as rules, with
// a warning naming both kinds.
func TestLoadInducedForKindMismatchWarns(t *testing.T) {
	text := strings.Replace(FormatInduced(NewInducedFor(testRules(), "L/N@t=20", "mpc7410")),
		"# policy: ripper", "# policy: cost", 1)
	path := writeModel(t, text)

	var got *Induced
	var err error
	warnings := captureStderr(t, func() { got, err = LoadInducedFor(path, "mpc7410") })
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Rules.Rules) == 0 {
		t.Fatal("mismatched kind should still load the rules")
	}
	if !strings.Contains(warnings, `"cost"`) || !strings.Contains(warnings, `"ripper"`) {
		t.Errorf("warning should name both kinds, got: %q", warnings)
	}
}

// A file trained for one target loads under another, with a warning
// naming both targets, and the filter keeps the target it was trained for.
func TestLoadInducedForTargetMismatchWarns(t *testing.T) {
	path := writeModel(t, FormatInduced(NewInducedFor(testRules(), "L/N@t=20", "mpc7410")))

	var got *Induced
	var err error
	warnings := captureStderr(t, func() { got, err = LoadInducedFor(path, "wide4") })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warnings, `"mpc7410"`) || !strings.Contains(warnings, `"wide4"`) {
		t.Errorf("warning should name both targets, got: %q", warnings)
	}
	if got.Target != "mpc7410" {
		t.Errorf("mismatched load lost the training target: %q", got.Target)
	}
}

// Headerless rule text (the pre-policy file format) loads without
// complaint: both headers are optional, and absent means unknown, not
// mismatched.
func TestLoadInducedForLegacyHeaderless(t *testing.T) {
	path := writeModel(t, testRules().Format())

	var got *Induced
	var err error
	warnings := captureStderr(t, func() { got, err = LoadInducedFor(path, "mpc7410") })
	if err != nil {
		t.Fatal(err)
	}
	if warnings != "" {
		t.Errorf("headerless file should load silently, got: %s", warnings)
	}
	if len(got.Rules.Rules) != len(testRules().Rules) {
		t.Errorf("got %d rules, want %d", len(got.Rules.Rules), len(testRules().Rules))
	}
}

func TestLoadInducedForMissingFile(t *testing.T) {
	if _, err := LoadInducedFor(filepath.Join(t.TempDir(), "nope.txt"), "mpc7410"); err == nil {
		t.Error("missing file should error")
	}
}
