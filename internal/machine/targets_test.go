package machine

import (
	"strings"
	"testing"

	"schedfilter/internal/ir"
)

func TestRegistryHasBuiltins(t *testing.T) {
	for _, name := range []string{"mpc7410", "scalar603", "scalar1", "wide4", "test-narrow"} {
		tgt, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if tgt.Model == nil || tgt.Description == "" {
			t.Fatalf("target %q incomplete: %+v", name, tgt)
		}
	}
	if Default().Name != DefaultTargetName {
		t.Fatalf("Default() = %q, want %q", Default().Name, DefaultTargetName)
	}
}

func TestAllOrderedDefaultFirst(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("All() returned %d targets, want >= 5", len(all))
	}
	if all[0].Name != DefaultTargetName {
		t.Fatalf("All()[0] = %q, want the default target first", all[0].Name)
	}
	seen := map[string]bool{}
	for _, tgt := range all {
		if seen[tgt.Name] {
			t.Fatalf("duplicate target %q in All()", tgt.Name)
		}
		seen[tgt.Name] = true
	}
}

func TestByNameUnknownNamesKnownTargets(t *testing.T) {
	_, err := ByName("pdp11")
	if err == nil {
		t.Fatal("ByName(pdp11) succeeded")
	}
	if !strings.Contains(err.Error(), "mpc7410") {
		t.Fatalf("unknown-target error should list known targets, got: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		model func(m *Model)
		want  string
	}{
		{"zero issue width", func(m *Model) { m.IssueWidth = 0 }, "issue width 0"},
		{"zero branch width", func(m *Model) { m.BranchPerCycle = 0 }, "branch issue width 0"},
		{"zero latency", func(m *Model) { m.Timing[ir.ADD].Latency = 0 }, "latency 0"},
		{"negative bubble", func(m *Model) { m.TakenBranchBubble = -1 }, "taken-branch bubble"},
	}
	for _, c := range cases {
		m := newMPC7410()
		c.model(m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: Validate succeeded, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsBuiltins(t *testing.T) {
	for _, tgt := range All() {
		if err := tgt.Model.Validate(); err != nil {
			t.Errorf("%s: %v", tgt.Name, err)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	orig := MustByName(DefaultTargetName).Model
	cp := orig.Clone()
	cp.IssueWidth = 7
	cp.Timing[ir.ADD].Latency = 9
	if orig.IssueWidth == 7 || orig.Timing[ir.ADD].Latency == 9 {
		t.Fatal("Clone shares state with the registered model")
	}
}

func TestTargetNameFor(t *testing.T) {
	if got := TargetNameFor(Default().Model); got != DefaultTargetName {
		t.Fatalf("TargetNameFor(default model) = %q", got)
	}
	// A clone matches by display name, so derived-but-unrenamed models
	// still label as their source target.
	if got := TargetNameFor(Default().Model.Clone()); got != DefaultTargetName {
		t.Fatalf("TargetNameFor(clone) = %q", got)
	}
	custom := newMPC7410()
	custom.Name = "Custom99"
	if got := TargetNameFor(custom); got != "Custom99" {
		t.Fatalf("TargetNameFor(custom) = %q", got)
	}
	if got := TargetNameFor(nil); got != "" {
		t.Fatalf("TargetNameFor(nil) = %q", got)
	}
}

func TestTestNarrowIsNarrowAndFast(t *testing.T) {
	m := MustByName("test-narrow").Model
	if m.IssueWidth != 1 {
		t.Fatalf("test-narrow issue width %d, want 1", m.IssueWidth)
	}
	for op := ir.Op(1); int(op) < ir.NumOps; op++ {
		if l := m.Timing[op].Latency; l < 1 || l > 3 {
			t.Fatalf("test-narrow %v latency %d outside [1,3]", op, l)
		}
	}
}

func TestBuiltinTargetModelsDiffer(t *testing.T) {
	// Distinct registered targets must present distinct display names:
	// the content-addressed cache separates machines by Model.Name.
	names := map[string]string{}
	for _, tgt := range All() {
		if prev, dup := names[tgt.Model.Name]; dup {
			t.Fatalf("targets %q and %q share model name %q", prev, tgt.Name, tgt.Model.Name)
		}
		names[tgt.Model.Name] = tgt.Name
	}
}
