package core

import (
	"strings"
	"testing"

	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
)

func parseT(t *testing.T, text string) *policy.Induced {
	t.Helper()
	f, err := policy.ParseInduced(text)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFormatParseRoundTrip(t *testing.T) {
	rs, err := ripper.Parse("(    5/   1) list :- bbLen >= 8.\n(    2/   0) orig :- .\n", features.Names[:])
	if err != nil {
		t.Fatal(err)
	}
	f := policy.NewInducedFor(rs, "L/N t=20", "mpc7410")
	back := parseT(t, policy.FormatInduced(f))
	if back.Label != f.Label || back.Target != f.Target {
		t.Fatalf("headers lost: %q/%q vs %q/%q", back.Label, back.Target, f.Label, f.Target)
	}
	if back.Rules.Format() != f.Rules.Format() {
		t.Fatal("rule text did not round-trip")
	}
}

func TestFilterIDFixedProtocols(t *testing.T) {
	if policy.ID(policy.Always{}) != "LS" || policy.ID(policy.Never{}) != "NS" {
		t.Error("fixed protocols must be identified by name")
	}
}

// The cache-key regression this identity exists to prevent: two filter
// versions that share a display label (as hot-swapped online versions
// can) but hold different rules must produce different program
// fingerprints — under the old f.Name() context they collided, and a
// swap could serve stale per-program decisions.
func TestFilterIDSameLabelDifferentRules(t *testing.T) {
	a := parseT(t, "# filter: online\n# labels: list orig\n(    1/   0) list :- bbLen >= 4.\n(    1/   0) orig :- .\n")
	b := parseT(t, "# filter: online\n# labels: list orig\n(    1/   0) list :- bbLen >= 9.\n(    1/   0) orig :- .\n")
	if a.Name() != b.Name() {
		t.Fatalf("test needs identical display names, got %q vs %q", a.Name(), b.Name())
	}
	if policy.ID(a) == policy.ID(b) {
		t.Fatal("same-label filters with different rules share a FilterID")
	}
	if !strings.Contains(policy.ID(a), a.RuleHash()) {
		t.Fatalf("FilterID %q does not embed the rule hash %q", policy.ID(a), a.RuleHash())
	}

	prog := genProgram(11, 6)
	ka := codecache.ProgramKey("mpc7410", policy.ID(a), prog)
	kb := codecache.ProgramKey("mpc7410", policy.ID(b), prog)
	if ka == kb {
		t.Fatal("program fingerprints collide across filter versions")
	}
	// Identical rules, identical identity — replays stay possible.
	a2 := parseT(t, policy.FormatInduced(a))
	if policy.ID(a2) != policy.ID(a) {
		t.Fatal("round-tripped filter changed identity")
	}
}

func TestRuleHashIgnoresLabel(t *testing.T) {
	a := parseT(t, "# filter: online v2\n# labels: list orig\n(    1/   0) list :- bbLen >= 4.\n(    1/   0) orig :- .\n")
	b := parseT(t, "# filter: online v3\n# labels: list orig\n(    1/   0) list :- bbLen >= 4.\n(    1/   0) orig :- .\n")
	if a.RuleHash() != b.RuleHash() {
		t.Fatal("relabelling identical rules changed the rule hash")
	}
	if policy.ID(a) == policy.ID(b) {
		t.Fatal("distinct labels must still yield distinct FilterIDs")
	}
}
