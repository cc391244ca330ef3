package schedfilter

import (
	"reflect"
	"strings"
	"testing"

	"schedfilter/internal/features"
	"schedfilter/internal/ripper"
)

func testFilter() *InducedFilter {
	rs := &RuleSet{
		Names:    features.Names[:],
		PosLabel: "list",
		NegLabel: "orig",
		Rules: []ripper.Rule{
			{Conds: []ripper.Condition{
				{Attr: 0, LE: false, Val: 7},
				{Attr: 3, LE: true, Val: 1.0 / 3.0},
			}, TP: 924, FP: 12},
		},
		DefaultTP: 27476,
		DefaultFP: 1946,
	}
	return NewRuleFilter(rs, "L/N t=20 (test)")
}

func TestTargetRegistryFacade(t *testing.T) {
	if DefaultTarget().Model.Name != NewMachine().Name {
		t.Fatal("NewMachine should copy the default target's model")
	}
}

func TestParseFilterWithoutHeader(t *testing.T) {
	f := testFilter()
	// Plain rule text (e.g. from an old schedtrain -o file): no label.
	back, err := ParseFilter(f.Rules.Format())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "L/N" {
		t.Fatalf("headerless model got label %q, want default", back.Name())
	}
	if !reflect.DeepEqual(back.Rules, f.Rules) {
		t.Fatal("rules drifted through headerless parse")
	}
}

func TestParseFilterRejectsGarbage(t *testing.T) {
	if _, err := ParseFilter("( 1/ 2) list :- nosuchfeature >= 3.\n"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestScheduleWithCacheFacade(t *testing.T) {
	prog, err := CompileSource(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	c := NewScheduleCache(0)
	cold := ScheduleWithCache(m, prog.Clone(), AlwaysSchedule, c)
	if cold.CacheMisses == 0 {
		t.Fatalf("cold pass had no misses: %+v", cold)
	}
	warm := ScheduleWithCache(m, prog.Clone(), AlwaysSchedule, c)
	if warm.CacheMisses != 0 || warm.CacheHits != warm.Scheduled {
		t.Fatalf("warm pass not fully cached: %+v", warm)
	}
	if st := c.Stats(); st.HitRate() <= 0 {
		t.Fatalf("cache stats empty: %+v", st)
	}
}

func TestFingerprintFacade(t *testing.T) {
	prog, err := CompileSource(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	k1 := FingerprintProgram(m, "LS", prog)
	k2 := FingerprintProgram(m, "NS", prog)
	if k1 == k2 {
		t.Fatal("program fingerprint ignores context label")
	}
	if !strings.Contains(FormatFilter(testFilter()), "# filter: L/N t=20 (test)") {
		t.Fatal("model text missing filter header")
	}
}
