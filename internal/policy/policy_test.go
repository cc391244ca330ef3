package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/ripper"
)

// testRules builds a small induced rule set over the real feature names:
// schedule big blocks, plus a low-confidence rule for mid-size blocks
// with few instructions in category 0.
func testRules() *ripper.RuleSet {
	return &ripper.RuleSet{
		Names:    features.Names[:],
		PosLabel: "list",
		NegLabel: "orig",
		Rules: []ripper.Rule{
			{Conds: []ripper.Condition{{Attr: 0, LE: false, Val: 10}}, TP: 80, FP: 20},
			{Conds: []ripper.Condition{
				{Attr: 0, LE: false, Val: 4},
				{Attr: 1, LE: true, Val: 0.25},
			}, TP: 6, FP: 4},
		},
		DefaultTP: 90,
		DefaultFP: 10,
	}
}

func vec(bbLen float64, fracs ...float64) features.Vector {
	var v features.Vector
	v[0] = bbLen
	for i, f := range fracs {
		v[i+1] = f
	}
	return v
}

// The cache-identity contract: ID must reproduce the historical
// core.FilterID output byte-for-byte for every pre-policy filter type,
// or every persisted cache fingerprint would silently invalidate.
func TestIDHistoricalCompatibility(t *testing.T) {
	ind := NewInduced(testRules(), "L/N t=20")
	cases := []struct {
		p    Policy
		want string
	}{
		{Always{}, "LS"},
		{Never{}, "NS"},
		{SizeThreshold{MinLen: 5}, "size>=5"},
		{ind, "L/N t=20@" + ind.RuleHash()},
	}
	for _, tc := range cases {
		if got := ID(tc.p); got != tc.want {
			t.Errorf("ID(%s) = %q, want %q", tc.p.Name(), got, tc.want)
		}
	}
}

// The identity RuleHash stores on its first call is the one the rule text
// hashes to, on a first call and after concurrent ID and Decide calls,
// for the shipped factory model and for a freshly induced rule set.
func TestIDHashedOnce(t *testing.T) {
	text, err := os.ReadFile("../../cmd/schedserved/factory_model.txt")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := ParseInduced(string(text))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ds := &ripper.Dataset{Names: features.Names[:]}
	for i := 0; i < 200; i++ {
		var v features.Vector
		for j := range v {
			v[j] = float64(rng.Intn(12))
		}
		ds.Add(v.Slice(), v[0] > 6 && v[2] < 9)
	}
	rs := ripper.Induce(ds, ripper.Options{PosLabel: "list", NegLabel: "orig", Seed: 1})
	if len(rs.Rules) == 0 {
		t.Fatal("induction found no rule")
	}
	for _, f := range []*Induced{factory, NewInduced(rs, "L/N t=20")} {
		sum := sha256.Sum256([]byte(f.Rules.Format()))
		want := f.Label + "@" + hex.EncodeToString(sum[:8])
		if got := ID(NewInduced(f.Rules, f.Label)); got != want {
			t.Fatalf("ID = %q, want %q", got, want)
		}
		// The first calls on f race to store its hash.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if got := ID(f); got != want {
						t.Errorf("concurrent ID = %q, want %q", got, want)
						return
					}
					f.Decide(features.Vector{float64(i % 20), float64(g)})
				}
			}(g)
		}
		wg.Wait()
		if got := ID(f); got != want {
			t.Errorf("ID after concurrent calls = %q, want %q", got, want)
		}
	}
}

// Richer policies must carry target identity in their ID: a cost
// threshold's decisions depend on the target's latencies, so two
// targets' cost:12 policies may disagree and must never share a
// cache fingerprint.
func TestIDRicherPolicies(t *testing.T) {
	c, err := newCostThreshold("wide4", 12)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ID(c), "cost>=12@wide4"; got != want {
		t.Errorf("cost ID = %q, want %q", got, want)
	}
	p, err := newPortfolio(Always{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ID(p), "portfolio[LS+cost>=12@wide4]"; got != want {
		t.Errorf("portfolio ID = %q, want %q", got, want)
	}
}

// Two induced versions with the same label but different rules must
// fingerprint differently (hot-swap staleness), and identical rules
// must fingerprint identically regardless of label-independent headers.
// This is the cache-key regression the identity exists to prevent:
// under a name-only context the two versions' program fingerprints
// collided, and a swap could serve stale per-program decisions.
func TestIDDistinguishesRetrainedVersions(t *testing.T) {
	a := NewInduced(testRules(), "online v2")
	rules2 := testRules()
	rules2.Rules[0].Conds[0].Val = 11
	b := NewInduced(rules2, "online v2")
	if ID(a) == ID(b) {
		t.Fatalf("different rules, same ID %q", ID(a))
	}
	if !strings.Contains(ID(a), a.RuleHash()) {
		t.Fatalf("ID %q does not embed the rule hash %q", ID(a), a.RuleHash())
	}
	r := rand.New(rand.NewSource(11))
	fn := &ir.Fn{Name: "f"}
	for i := 0; i < 6; i++ {
		fn.Blocks = append(fn.Blocks, blockgen.GenBlock(r, blockgen.DefaultConfig, i))
	}
	prog := &ir.Program{Fns: []*ir.Fn{fn}}
	if codecache.ProgramKey("mpc7410", ID(a), prog) == codecache.ProgramKey("mpc7410", ID(b), prog) {
		t.Fatal("program fingerprints collide across filter versions")
	}

	c := NewInducedFor(testRules(), "online v2", "wide4")
	if ID(a) != ID(c) {
		t.Fatalf("same rules, different IDs %q vs %q", ID(a), ID(c))
	}
	back, err := ParseInduced(FormatInduced(a))
	if err != nil {
		t.Fatal(err)
	}
	if ID(back) != ID(a) {
		t.Fatal("round-tripped filter changed identity")
	}
	// Relabelled identical rules keep the rule hash but not the ID.
	d := NewInduced(testRules(), "online v3")
	if d.RuleHash() != a.RuleHash() {
		t.Fatal("relabelling identical rules changed the rule hash")
	}
	if ID(d) == ID(a) {
		t.Fatal("distinct labels must still yield distinct IDs")
	}
}

// Induced.Decide's boolean must be bit-identical to the historical
// RuleSet.Predict path on arbitrary vectors — the refactor's zero
// behavior-change guarantee.
func TestInducedDecideMatchesPredict(t *testing.T) {
	f := NewInduced(testRules(), "L/N")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var v features.Vector
		v[0] = float64(rng.Intn(30))
		for j := 1; j < features.Count; j++ {
			v[j] = rng.Float64()
		}
		want := f.Rules.Predict(v.Slice())
		got, conf := f.Decide(v)
		if got != want {
			t.Fatalf("vector %v: Decide=%v Predict=%v", v, got, want)
		}
		if conf < 0 || conf > 1 {
			t.Fatalf("confidence %v out of [0,1]", conf)
		}
	}
}

// Confidence comes from the covering rule's Laplace-corrected training
// accuracy; the default rule's counts apply when nothing covers.
func TestInducedConfidence(t *testing.T) {
	f := NewInduced(testRules(), "L/N")
	// bbLen 12 is covered by rule 1 (TP 80, FP 20).
	if _, conf := f.Decide(vec(12)); conf != laplace(80, 20) {
		t.Errorf("rule-1 confidence = %v, want %v", conf, laplace(80, 20))
	}
	// bbLen 6 with low category-0 fraction hits rule 2 (TP 6, FP 4).
	if _, conf := f.Decide(vec(6, 0.1)); conf != laplace(6, 4) {
		t.Errorf("rule-2 confidence = %v, want %v", conf, laplace(6, 4))
	}
	// bbLen 2: no rule covers, default counts (90, 10).
	sched, conf := f.Decide(vec(2, 0.9))
	if sched {
		t.Error("uncovered vector scheduled")
	}
	if conf != laplace(90, 10) {
		t.Errorf("default confidence = %v, want %v", conf, laplace(90, 10))
	}
}

// Adding the "# policy:" header must not change any filter's rule hash:
// hashes are over rule text only, so pre-policy and post-policy model
// files of the same rules share an identity.
func TestRuleHashExcludesHeaders(t *testing.T) {
	f := NewInducedFor(testRules(), "L/N t=20", "mpc7410")
	text := FormatInduced(f)
	for _, h := range []string{"# filter:", "# policy: ripper", "# target: mpc7410"} {
		if !strings.Contains(text, h) {
			t.Errorf("formatted model lacks %q header:\n%s", h, text)
		}
	}
	back, err := ParseInduced(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != f.Label || back.Target != f.Target {
		t.Errorf("round-trip lost provenance: %+v", back)
	}
	if back.Rules.Format() != f.Rules.Format() {
		t.Error("rule text did not round-trip")
	}
	if back.RuleHash() != f.RuleHash() {
		t.Errorf("round-trip changed hash %s -> %s", f.RuleHash(), back.RuleHash())
	}
	// A pre-policy file (no headers at all) parses and hashes the same.
	bare, err := ParseInduced(f.Rules.Format())
	if err != nil {
		t.Fatal(err)
	}
	if bare.RuleHash() != f.RuleHash() {
		t.Errorf("headerless file changed hash %s -> %s", f.RuleHash(), bare.RuleHash())
	}
}

func TestFileKind(t *testing.T) {
	f := NewInduced(testRules(), "L/N")
	if got := fileKind(FormatInduced(f)); got != kindRipper {
		t.Errorf("FileKind = %q, want %q", got, kindRipper)
	}
	if got := fileKind(f.Rules.Format()); got != "" {
		t.Errorf("FileKind of headerless text = %q, want empty", got)
	}
	if got := fileKind("# policy: cost\nwhatever"); got != "cost" {
		t.Errorf("FileKind = %q, want cost", got)
	}
}

// FromSpec/specOf must round-trip every spec-representable kind, with
// the historical LS/NS spellings accepted as aliases.
func TestSpecRoundTrip(t *testing.T) {
	canonical := []string{
		"always",
		"never",
		"size:5",
		"cost:12",
		"portfolio:always+size:3",
		"portfolio:never+cost:8+size:2",
	}
	for _, spec := range canonical {
		p, err := FromSpec(spec, "mpc7410")
		if err != nil {
			t.Errorf("FromSpec(%q): %v", spec, err)
			continue
		}
		if got := specOf(p); got != spec {
			t.Errorf("SpecOf(FromSpec(%q)) = %q", spec, got)
		}
	}
	aliases := map[string]string{
		"LS": "always", "ls": "always",
		"NS": "never", "ns": "never",
		"default": "always",
		"Size:4":  "size:4",
	}
	for in, want := range aliases {
		p, err := FromSpec(in, "")
		if err != nil {
			t.Errorf("FromSpec(%q): %v", in, err)
			continue
		}
		if got := specOf(p); got != want {
			t.Errorf("FromSpec(%q) -> %q, want %q", in, got, want)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"nonesuch",
		"size:x",
		"size:-1",
		"cost:many",
		"always:arg",
		"portfolio:",
		"portfolio:always+nonesuch",
		"ripper", // not spec-constructible
		"cost:5:extra",
	}
	for _, spec := range bad {
		if p, err := FromSpec(spec, ""); err == nil {
			t.Errorf("FromSpec(%q) accepted: %v", spec, p.Name())
		}
	}
	// Unknown kinds name the known ones for discoverability.
	_, err := FromSpec("nonesuch", "")
	if err == nil || !strings.Contains(err.Error(), "ripper") {
		t.Errorf("unknown-kind error should list known kinds, got %v", err)
	}
}

// specOf declines non-representable policies (induced rules, portfolios
// containing them) instead of inventing a lossy spec.
func TestSpecOfNotRepresentable(t *testing.T) {
	ind := NewInduced(testRules(), "L/N")
	if got := specOf(ind); got != "" {
		t.Errorf("SpecOf(induced) = %q, want empty", got)
	}
	p, err := newPortfolio(Always{}, ind)
	if err != nil {
		t.Fatal(err)
	}
	if got := specOf(p); got != "" {
		t.Errorf("SpecOf(portfolio with induced member) = %q, want empty", got)
	}
}

// format/Parse round-trips both serialized forms: model text for
// induced filters, spec docs for everything representable.
func TestFormatParseRoundTrip(t *testing.T) {
	ind := NewInducedFor(testRules(), "L/N t=20", "wide4")
	cost, err := newCostThreshold("wide4", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{ind, cost, Always{}, SizeThreshold{MinLen: 3}} {
		text, err := format(p)
		if err != nil {
			t.Fatalf("Format(%s): %v", p.Name(), err)
		}
		back, err := Parse(text, "wide4")
		if err != nil {
			t.Fatalf("Parse(Format(%s)): %v", p.Name(), err)
		}
		if ID(back) != ID(p) {
			t.Errorf("round-trip changed identity %q -> %q", ID(p), ID(back))
		}
	}
	// A portfolio containing an induced member has no serial form.
	mixed, err := newPortfolio(Always{}, ind)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := format(mixed); err == nil {
		t.Error("Format(portfolio with induced member) should fail")
	}
}

func TestPortfolioDecide(t *testing.T) {
	// size>=10 and never: on a tiny block both say no; on a huge block
	// size wins with high confidence over never's constant 1? No —
	// never's confidence is 1.0, so it wins except when size is at
	// least as sure. Use two thresholds instead for a real arbitration.
	lo := SizeThreshold{MinLen: 2}
	hi := SizeThreshold{MinLen: 100}
	p, err := newPortfolio(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	// bbLen 99: lo is 97 past its threshold (conf≈0.99, schedule), hi is
	// 1 short (conf=0.5, don't). lo wins.
	if sched, _ := p.Decide(vec(99)); !sched {
		t.Error("expected the confident member to win")
	}
	// bbLen 3: lo barely schedules (d=1 -> 0.5), hi confidently doesn't
	// (d=97 -> ≈0.99). hi wins.
	if sched, _ := p.Decide(vec(3)); sched {
		t.Error("expected the confident refuser to win")
	}
	// Ties break to the earliest member: two members at equal distance
	// from their thresholds disagree; the first wins.
	a := SizeThreshold{MinLen: 4} // bbLen 5: schedule, d=1
	b := SizeThreshold{MinLen: 6} // bbLen 5: don't, d=1
	p2, err := newPortfolio(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sched, _ := p2.Decide(vec(5)); !sched {
		t.Error("tie should break to the earliest member")
	}
	if _, err := newPortfolio(); err == nil {
		t.Error("empty portfolio should be rejected")
	}
}

func TestCostThreshold(t *testing.T) {
	c, err := newCostThreshold("", 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Target != machine.DefaultTargetName {
		t.Errorf("empty target resolved to %q, want %q", c.Target, machine.DefaultTargetName)
	}
	if _, err := newCostThreshold("no-such-machine", 8); err == nil {
		t.Error("unknown target should error")
	}
	// More instructions of the same mix never cost less.
	prev := -1.0
	for n := 1; n <= 32; n *= 2 {
		est := c.EstCycles(vec(float64(n), 0.5))
		if est < prev {
			t.Fatalf("EstCycles not monotone in bbLen: %v after %v", est, prev)
		}
		prev = est
	}
	// A block heavy in a slow category costs more than an even split of
	// cheap work at equal length (mpc7410 float div is slow; weight>1).
	slow := c.EstCycles(vec(16, 0, 0, 0, 0, 0, 1))
	cheap := c.EstCycles(vec(16, 1))
	if slow <= cheap {
		t.Skipf("category weights too flat to order (slow=%v cheap=%v)", slow, cheap)
	}
	// Decide is the threshold test over EstCycles.
	v := vec(40, 0.5)
	sched, conf := c.Decide(v)
	if want := c.EstCycles(v) >= float64(c.MinCycles); sched != want {
		t.Errorf("Decide=%v, EstCycles comparison says %v", sched, want)
	}
	if conf < 0 || conf > 1 {
		t.Errorf("confidence %v out of range", conf)
	}
}

func TestRegistry(t *testing.T) {
	var names []string
	for _, k := range Kinds() {
		if k.Name == "" || k.Parse == nil {
			t.Errorf("kind %+v lacks a name or a Parse func", k)
		}
		names = append(names, k.Name)
	}
	// The table order is the /v1/policies listing order.
	if want := []string{kindAlways, kindNever, kindSize, kindCost, kindRipper, kindPortfolio}; !slices.Equal(names, want) {
		t.Errorf("kinds %v, want %v", names, want)
	}
	if _, err := kindByName("nope"); err == nil {
		t.Error("unknown kind lookup should error")
	}
}

// Schedules is the one boolean form of a decision: the fixed protocols,
// a size threshold at its boundary and an induced filter following its
// single rule (bbLen >= 10), each under its name.
func TestSchedules(t *testing.T) {
	bigRule := &ripper.RuleSet{
		Names: features.Names[:],
		Rules: []ripper.Rule{{Conds: []ripper.Condition{{Attr: 0, LE: false, Val: 10}}}},
	}
	cases := []struct {
		p          Policy
		name       string
		small, big features.Vector
		want       [2]bool // decisions on small, big
	}{
		{Always{}, "LS", vec(1), vec(100), [2]bool{true, true}},
		{Never{}, "NS", vec(1), vec(100), [2]bool{false, false}},
		{SizeThreshold{MinLen: 7}, "size>=7", vec(6), vec(7), [2]bool{false, true}},
		{NewInduced(bigRule, ""), "L/N", vec(5), vec(15), [2]bool{false, true}},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("name = %q, want %q", c.p.Name(), c.name)
		}
		if got := [2]bool{Schedules(c.p, c.small), Schedules(c.p, c.big)}; got != c.want {
			t.Errorf("%s: decisions %v, want %v", c.name, got, c.want)
		}
	}
}
