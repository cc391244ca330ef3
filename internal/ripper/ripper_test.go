package ripper

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "a" + string(rune('0'+i))
	}
	return out
}

// synth generates a dataset labelled by a hidden concept with optional
// label noise.
func synth(r *rand.Rand, n int, concept func(x []float64) bool, noise float64) *Dataset {
	ds := &Dataset{Names: names(3)}
	for i := 0; i < n; i++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64()}
		y := concept(x)
		if r.Float64() < noise {
			y = !y
		}
		ds.Add(x, y)
	}
	return ds
}

func TestInduceEmptyDataset(t *testing.T) {
	rs := Induce(&Dataset{Names: names(2)}, DefaultOptions())
	if len(rs.Rules) != 0 {
		t.Errorf("expected no rules, got %d", len(rs.Rules))
	}
	if rs.Predict([]float64{0, 0}) {
		t.Error("empty rule set must predict the default (negative) class")
	}
}

func TestInduceAllNegative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := synth(r, 200, func(x []float64) bool { return false }, 0)
	rs := Induce(ds, DefaultOptions())
	if len(rs.Rules) != 0 {
		t.Errorf("all-negative data should induce no rules, got %d", len(rs.Rules))
	}
	if rs.ErrorRate(ds) != 0 {
		t.Errorf("error rate %v, want 0", rs.ErrorRate(ds))
	}
}

func TestInduceSimpleThresholdConcept(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	concept := func(x []float64) bool { return x[0] >= 0.6 }
	ds := synth(r, 600, concept, 0)
	rs := Induce(ds, DefaultOptions())
	test := synth(r, 400, concept, 0)
	if e := rs.ErrorRate(test); e > 0.05 {
		t.Errorf("error rate on separable concept = %v, want <= 0.05\n%s", e, rs)
	}
}

func TestInduceConjunctionConcept(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	concept := func(x []float64) bool { return x[0] >= 0.5 && x[1] <= 0.4 }
	ds := synth(r, 1000, concept, 0)
	rs := Induce(ds, DefaultOptions())
	test := synth(r, 500, concept, 0)
	if e := rs.ErrorRate(test); e > 0.06 {
		t.Errorf("error rate on conjunction = %v, want <= 0.06\n%s", e, rs)
	}
}

func TestInduceDisjunctionNeedsTwoRules(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	concept := func(x []float64) bool { return x[0] >= 0.8 || x[1] >= 0.85 }
	ds := synth(r, 1500, concept, 0)
	rs := Induce(ds, DefaultOptions())
	if len(rs.Rules) < 2 {
		t.Errorf("disjunction should induce >= 2 rules, got %d\n%s", len(rs.Rules), rs)
	}
	test := synth(r, 500, concept, 0)
	if e := rs.ErrorRate(test); e > 0.08 {
		t.Errorf("error rate on disjunction = %v, want <= 0.08\n%s", e, rs)
	}
}

func TestInduceRobustToLabelNoise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	concept := func(x []float64) bool { return x[2] <= 0.3 }
	ds := synth(r, 1500, concept, 0.1)
	rs := Induce(ds, DefaultOptions())
	clean := synth(r, 500, concept, 0)
	if e := rs.ErrorRate(clean); e > 0.15 {
		t.Errorf("error rate under 10%% noise = %v, want <= 0.15\n%s", e, rs)
	}
	// Pruning + MDL should keep the theory small despite noise.
	if rs.NumConditions() > 40 {
		t.Errorf("noisy induction produced a bloated theory: %d conditions", rs.NumConditions())
	}
}

func TestInduceBeatsDefaultOnTrain(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		concept := func(x []float64) bool { return x[0]+x[1] >= 1.2 }
		ds := synth(r, 400, concept, 0.05)
		rs := Induce(ds, DefaultOptions())
		pos, neg := ds.Counts()
		baseline := float64(min(pos, neg)) / float64(ds.Len())
		return rs.ErrorRate(ds) <= baseline+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestInduceDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ds := synth(r, 500, func(x []float64) bool { return x[1] >= 0.5 }, 0.05)
	a := Induce(ds, DefaultOptions())
	b := Induce(ds, DefaultOptions())
	if a.String() != b.String() {
		t.Errorf("induction not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestStatsSumToDataset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := synth(r, 700, func(x []float64) bool { return x[0] >= 0.5 }, 0.1)
	rs := Induce(ds, DefaultOptions())
	total := rs.DefaultTP + rs.DefaultFP
	for i := range rs.Rules {
		total += rs.Rules[i].TP + rs.Rules[i].FP
	}
	if total != ds.Len() {
		t.Errorf("per-rule stats sum to %d, want %d", total, ds.Len())
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ds := synth(r, 800, func(x []float64) bool { return x[0] >= 0.4 && x[2] <= 0.7 }, 0.02)
	rs := Induce(ds, DefaultOptions())
	text := rs.String()
	back, err := Parse(text, ds.Names)
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, text)
	}
	if back.String() != text {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text, back)
	}
	// Predictions must agree everywhere.
	for i := range ds.X {
		if rs.Predict(ds.X[i]) != back.Predict(ds.X[i]) {
			t.Fatalf("prediction mismatch after round trip on instance %d", i)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"no parens here",
		"(1/2) pos :- unknownattr >= 3.",
		"(x/2) pos :- a0 >= 3.",
		"(1/2) pos ;; a0 >= 3.",
		"(1/2) pos :- a0 == 3.",
		// Labels Format could not write back unambiguously.
		"# labels: x x\n(1/0) x :- .",
		"(5/0) pos :- .",
		"# labels: list a:-b\n(0/0) a:-b :- .",
	}
	for _, c := range cases {
		if _, err := Parse(c, names(3)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestParseFigure4Style(t *testing.T) {
	text := "(  924/  12) list :- bbLen >= 7, calls <= 0.0857, loads >= 0.3793.\n" +
		"(27476/1946) orig :- .\n"
	rs, err := Parse(text, []string{"bbLen", "calls", "loads"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 1 || len(rs.Rules[0].Conds) != 3 {
		t.Fatalf("parsed %d rules", len(rs.Rules))
	}
	if !rs.Predict([]float64{8, 0.05, 0.5}) {
		t.Error("instance satisfying the rule should be positive")
	}
	if rs.Predict([]float64{3, 0.05, 0.5}) {
		t.Error("short block should be negative")
	}
	if rs.PosLabel != "list" || rs.NegLabel != "orig" {
		t.Errorf("labels = %q/%q", rs.PosLabel, rs.NegLabel)
	}
}

func TestDatasetGrowAppend(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	parts := []*Dataset{
		synth(r, 50, func(x []float64) bool { return x[0] >= 0.5 }, 0),
		synth(r, 70, func(x []float64) bool { return x[1] <= 0.3 }, 0),
		synth(r, 30, func(x []float64) bool { return x[2] >= 0.8 }, 0),
	}

	// Reference: instance-at-a-time Add.
	want := &Dataset{Names: names(3)}
	for _, p := range parts {
		for i := range p.X {
			want.Add(p.X[i], p.Y[i])
		}
	}

	got := &Dataset{Names: names(3)}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	got.Grow(total)
	capBefore := cap(got.X)
	for _, p := range parts {
		got.Append(p)
	}
	if got.Len() != want.Len() {
		t.Fatalf("Append produced %d instances, want %d", got.Len(), want.Len())
	}
	if cap(got.X) != capBefore {
		t.Errorf("pre-sized Grow still reallocated: cap %d -> %d", capBefore, cap(got.X))
	}
	for i := range want.X {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("label %d differs", i)
		}
		for j := range want.X[i] {
			if got.X[i][j] != want.X[i][j] {
				t.Fatalf("instance %d attr %d differs", i, j)
			}
		}
	}

	// Names adopted from the first appended part when unset.
	adopt := &Dataset{}
	adopt.Append(parts[0])
	if len(adopt.Names) != 3 {
		t.Errorf("Append did not adopt names: %v", adopt.Names)
	}
	// Nil and empty appends are no-ops.
	n := adopt.Len()
	adopt.Append(nil)
	adopt.Append(&Dataset{})
	adopt.Grow(0)
	adopt.Grow(-5)
	if adopt.Len() != n {
		t.Errorf("no-op appends changed length %d -> %d", n, adopt.Len())
	}
}

func TestConditionMatch(t *testing.T) {
	le := Condition{Attr: 0, LE: true, Val: 5}
	ge := Condition{Attr: 0, LE: false, Val: 5}
	if !le.Match([]float64{5}) || !ge.Match([]float64{5}) {
		t.Error("boundary value should satisfy both <= and >=")
	}
	if le.Match([]float64{6}) || ge.Match([]float64{4}) {
		t.Error("strict violations should not match")
	}
}

func TestRuleCoversEmptyRule(t *testing.T) {
	r := Rule{}
	if !r.Covers([]float64{1, 2, 3}) {
		t.Error("empty rule must cover everything")
	}
}

func TestLog2Binomial(t *testing.T) {
	// C(10,3) = 120, log2(120) ~ 6.907.
	got := log2Binomial(10, 3)
	if got < 6.9 || got > 6.92 {
		t.Errorf("log2Binomial(10,3) = %v", got)
	}
	if log2Binomial(5, 0) != 0 {
		t.Error("C(n,0) should cost 0 bits")
	}
	if log2Binomial(5, 9) != 0 {
		t.Error("out-of-range k should be 0")
	}
}

func TestRuleSetStringHasDefaultLine(t *testing.T) {
	rs := &RuleSet{PosLabel: "list", NegLabel: "orig", Names: names(2)}
	s := rs.String()
	if !strings.Contains(s, "orig :- .") {
		t.Errorf("missing default rule line in %q", s)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestInduceImbalancedMinorityClass(t *testing.T) {
	// 5% positives, like the paper's LS class: the learner must still
	// find the concept rather than defaulting to all-negative.
	r := rand.New(rand.NewSource(21))
	concept := func(x []float64) bool { return x[0] >= 0.95 }
	ds := synth(r, 3000, concept, 0)
	rs := Induce(ds, DefaultOptions())
	if len(rs.Rules) == 0 {
		t.Fatal("no rules induced for a rare but clean concept")
	}
	test := synth(r, 1000, concept, 0)
	if e := rs.ErrorRate(test); e > 0.03 {
		t.Errorf("error on rare concept = %.3f, want <= 0.03\n%s", e, rs)
	}
}

func TestInduceSingleAttribute(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	ds := &Dataset{Names: []string{"x"}}
	for i := 0; i < 400; i++ {
		x := r.Float64()
		ds.Add([]float64{x}, x <= 0.3)
	}
	rs := Induce(ds, DefaultOptions())
	if e := rs.ErrorRate(ds); e > 0.02 {
		t.Errorf("train error %.3f on one-attribute threshold\n%s", e, rs)
	}
}

func TestInduceMoreOptimizationRoundsNoWorse(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	concept := func(x []float64) bool { return x[0] >= 0.5 && x[1] >= 0.5 || x[2] <= 0.2 }
	ds := synth(r, 1200, concept, 0.05)
	test := synth(r, 600, concept, 0)
	opt1 := DefaultOptions()
	opt1.OptimizeRounds = 1
	opt4 := DefaultOptions()
	opt4.OptimizeRounds = 4
	e1 := Induce(ds, opt1).ErrorRate(test)
	e4 := Induce(ds, opt4).ErrorRate(test)
	if e4 > e1+0.08 {
		t.Errorf("more optimization rounds hurt badly: %.3f -> %.3f", e1, e4)
	}
}

func TestInduceDifferentSeedsStillLearn(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	concept := func(x []float64) bool { return x[1] >= 0.6 }
	ds := synth(r, 800, concept, 0.02)
	test := synth(r, 400, concept, 0)
	for seed := int64(1); seed <= 5; seed++ {
		opt := DefaultOptions()
		opt.Seed = seed
		if e := Induce(ds, opt).ErrorRate(test); e > 0.1 {
			t.Errorf("seed %d: error %.3f", seed, e)
		}
	}
}

func TestTheoryBitsGrowWithConditions(t *testing.T) {
	ds := &Dataset{Names: names(3)}
	ds.Add([]float64{1, 2, 3}, true)
	m := newMDL(newColumns(ds))
	small := &Rule{Conds: []Condition{{Attr: 0, LE: true, Val: 1}}}
	big := &Rule{Conds: []Condition{
		{Attr: 0, LE: true, Val: 1}, {Attr: 1, LE: false, Val: 2}, {Attr: 2, LE: true, Val: 3},
	}}
	if m.theoryBits(big) <= m.theoryBits(small) {
		t.Error("longer rules must cost more bits")
	}
	if m.theoryBits(&Rule{}) != 0 {
		t.Error("the empty rule costs nothing")
	}
}

func TestExceptionBitsPreferAccuracy(t *testing.T) {
	ds := &Dataset{Names: names(2)}
	for i := 0; i < 100; i++ {
		ds.Add([]float64{float64(i), 0}, i < 50)
	}
	m := newMDL(newColumns(ds))
	perfect := m.exceptionBits(50, 0, 50, 0)
	sloppy := m.exceptionBits(50, 10, 50, 10)
	if perfect >= sloppy {
		t.Errorf("errors must cost bits: perfect %.1f vs sloppy %.1f", perfect, sloppy)
	}
}

func TestInduceNegativeZeroPrintsZero(t *testing.T) {
	// −0 and +0 are one value to every condition; a threshold on it
	// prints as 0 whichever of the two the instances carry.
	negZero := math.Copysign(0, -1)
	ds := &Dataset{Names: names(1)}
	for i := 0; i < 40; i++ {
		switch {
		case i < 19:
			ds.Add([]float64{negZero}, true)
		case i == 19:
			ds.Add([]float64{0}, true)
		default:
			ds.Add([]float64{float64(i)}, false)
		}
	}
	rs := Induce(ds, DefaultOptions())
	text := rs.Format()
	if !strings.Contains(text, "a0 <= 0.") || strings.Contains(text, "-0") {
		t.Errorf("want the rule a0 <= 0, got:\n%s", text)
	}
	if rs.ErrorRate(ds) != 0 {
		t.Errorf("error rate %v on a separable concept", rs.ErrorRate(ds))
	}
}
