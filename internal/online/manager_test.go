package online

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/codecache"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/training"
)

const testTarget = "mpc7410"

func genProgram(seed int64, nBlocks int) *ir.Program {
	r := rand.New(rand.NewSource(seed))
	fn := &ir.Fn{Name: "f"}
	for i := 0; i < nBlocks; i++ {
		fn.Blocks = append(fn.Blocks, blockgen.GenBlock(r, blockgen.DefaultConfig, i))
	}
	return &ir.Program{Fns: []*ir.Fn{fn}}
}

func newTestManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	if cfg.Targets == nil {
		cfg.Targets = []string{testTarget}
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// programKeys fingerprints every block of p under the named target's
// model, in program order, as the compile server's memo keeps them.
func programKeys(t testing.TB, target string, p *ir.Program) []codecache.Key {
	t.Helper()
	tgt, err := machine.ByName(target)
	if err != nil {
		t.Fatal(err)
	}
	var keys []codecache.Key
	for _, fn := range p.Fns {
		for _, b := range fn.Blocks {
			keys = append(keys, codecache.BlockKey(tgt.Model.Name, b.Instrs))
		}
	}
	return keys
}

// Observing with the caller's block fingerprints finds the blocks a
// hashing observation stored, and stores the same samples.
func TestObserveWithKeys(t *testing.T) {
	prog := genProgram(2, 30)
	keys := programKeys(t, testTarget, prog)
	hashed, keyed := newTestManager(t, Config{}), newTestManager(t, Config{})
	hashed.Observe(testTarget, prog, nil)
	keyed.Observe(testTarget, prog, keys)
	hashed.Drain()
	keyed.Drain()
	a, b := hashed.Reservoir(testTarget).Snapshot(), keyed.Reservoir(testTarget).Snapshot()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("%d samples hashing and %d with keys differ", len(a), len(b))
	}
	keyed.Observe(testTarget, prog, nil)
	hashed.Observe(testTarget, prog, keys)
	if h, k := hashed.Metrics().Known, keyed.Metrics().Known; h != int64(len(a)) || k != h {
		t.Fatalf("second sighting found %d known blocks hashing and %d with keys, want %d", k, h, len(a))
	}
}

// BenchmarkObserve is the steady-state cost of observing a program whose
// blocks are all in the reservoir, hashing each block or taking the
// memo's fingerprints.
func BenchmarkObserve(b *testing.B) {
	prog := genProgram(3, 200)
	keys := programKeys(b, testTarget, prog)
	for _, bc := range []struct {
		name string
		keys []codecache.Key
	}{{"hash", nil}, {"keys", keys}} {
		b.Run(bc.name, func(b *testing.B) {
			m := newTestManager(b, Config{})
			m.Observe(testTarget, prog, nil)
			m.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Observe(testTarget, prog, bc.keys)
			}
		})
	}
}

// seedSynthetic injects a controlled reservoir: nTrain train-bucket
// samples and nHold holdout-bucket samples where list scheduling halves
// the block's estimated cost (NS 100 → LS 50, block length 10).
func seedSynthetic(m *Manager, nTrain, nHold int) {
	res := m.Reservoir(testTarget)
	for i := 0; i < nHold; i++ {
		k := mkKey(0, i) // bucket 0 → holdout at HoldoutK=4
		res.Add(k, mkSample(k, 10, 100, 50))
	}
	for i := 0; i < nTrain; i++ {
		k := mkKey(1, i)
		res.Add(k, mkSample(k, 10, 100, 50))
	}
}

func TestObserveMeasuresUnknownBlocks(t *testing.T) {
	m := newTestManager(t, Config{})
	prog := genProgram(1, 12)
	m.Observe(testTarget, prog, nil)
	m.Drain()

	res := m.Reservoir(testTarget)
	if res.Len() == 0 {
		t.Fatal("no samples measured from observed traffic")
	}
	for _, s := range res.Snapshot() {
		if s.CostNS <= 0 || s.CostLS <= 0 {
			t.Fatalf("unmeasured sample: %+v", s)
		}
		if s.CostLS > s.CostNS {
			t.Fatalf("list scheduling made block worse: LS %d > NS %d", s.CostLS, s.CostNS)
		}
	}
	mm := m.Metrics()
	if mm.Observed == 0 || mm.Enqueued == 0 || mm.Measured != mm.Enqueued {
		t.Fatalf("collector counters inconsistent: %+v", mm)
	}

	// A second pass over identical content is pure weight bumps.
	before := res.Len()
	m.Observe(testTarget, genProgram(1, 12), nil)
	m.Drain()
	if res.Len() != before {
		t.Fatalf("repeat traffic grew the reservoir %d → %d", before, res.Len())
	}
	if m.Metrics().Known == 0 {
		t.Fatal("repeat sightings not counted as known")
	}
}

func TestObserveUnmanagedTargetIsNoop(t *testing.T) {
	m := newTestManager(t, Config{})
	m.Observe("wide4", genProgram(1, 4), nil)
	m.Drain()
	if m.Reservoir("wide4") != nil {
		t.Fatal("unmanaged target grew a reservoir")
	}
	if f, v := m.ActiveFilter("wide4"); v != 0 || f == nil {
		t.Fatalf("unmanaged target fallback: %v v%d", f, v)
	}
}

func TestRetrainInsufficientSamples(t *testing.T) {
	m := newTestManager(t, Config{MinSamples: 1000})
	rep, err := m.Retrain(testTarget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Promoted || rep.Version != 0 || !strings.Contains(rep.Reason, "insufficient") {
		t.Fatalf("empty-reservoir retrain: %+v", rep)
	}
	if m.Registry(testTarget).Count() != 1 {
		t.Fatal("insufficient-samples round registered a version")
	}
}

// The determinism acceptance test: two managers whose reservoirs hold
// identical content — one filled live, one restored from the other's
// JSONL spill — induce bit-identical rule text.
func TestRetrainDeterministicAcrossSpill(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MinSamples: 1, SpillDir: dir}

	m1 := newTestManager(t, cfg)
	m1.Observe(testTarget, genProgram(7, 60), nil)
	m1.Drain()
	if err := m1.Spill(); err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, cfg) // restores m1's spill

	r1, err := m1.Retrain(testTarget)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Retrain(testTarget)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version == 0 || r2.Version == 0 {
		t.Fatalf("no candidate induced: %+v / %+v", r1, r2)
	}
	v1 := m1.Registry(testTarget).List()[r1.Version-1]
	v2 := m2.Registry(testTarget).List()[r2.Version-1]
	if v1.Rules == "" || v1.Rules != v2.Rules {
		t.Fatalf("identical reservoirs induced different rules:\n%s\nvs\n%s", v1.Rules, v2.Rules)
	}
	if v1.RuleHash != v2.RuleHash {
		t.Fatalf("rule hashes differ: %s vs %s", v1.RuleHash, v2.RuleHash)
	}

	// Same manager, same reservoir, retrained again: same rule list
	// again (the label header carries the new version number; the rule
	// hash covers only the rules and must not move).
	r3, err := m1.Retrain(testTarget)
	if err != nil {
		t.Fatal(err)
	}
	v3 := m1.Registry(testTarget).List()[r3.Version-1]
	if v3.RuleHash != v1.RuleHash {
		t.Fatal("re-retraining an unchanged reservoir changed the rules")
	}
}

// The shadow-gate acceptance test: a deliberately crippled candidate —
// one that refuses to schedule blocks that scheduling demonstrably
// helps — must be registered as rejected and must not serve traffic.
func TestShadowGateBlocksCrippledCandidate(t *testing.T) {
	m := newTestManager(t, Config{Boot: policy.Always{}, MinSamples: 1})
	seedSynthetic(m, 8, 4)

	crippled, err := policy.ParseInduced(
		"# filter: crippled\n# labels: list orig\n(    1/   0) orig :- .\n")
	if err != nil {
		t.Fatal(err)
	}
	m.induce = func([]*training.BenchData, int, ripper.Options) *policy.Induced { return crippled }

	rep, err := m.Retrain(testTarget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Promoted {
		t.Fatalf("crippled candidate promoted: %+v", rep)
	}
	if !strings.Contains(rep.Reason, "cycles regress") {
		t.Fatalf("rejection reason %q", rep.Reason)
	}
	if rep.Version != 2 {
		t.Fatalf("candidate not registered: %+v", rep)
	}
	if v := m.Registry(testTarget).List()[1]; v.State != "rejected" {
		t.Fatalf("candidate state %q, want rejected", v.State)
	}
	if _, v := m.ActiveFilter(testTarget); v != 1 {
		t.Fatalf("serving filter moved to v%d after a rejection", v)
	}
	if mm := m.Metrics(); mm.Rejections != 1 || mm.Promotions != 0 {
		t.Fatalf("gate counters wrong: %+v", mm)
	}

	// Operator override: a rejected version can still be activated by
	// hand, and rolled back.
	if _, err := m.Activate(testTarget, 2); err != nil {
		t.Fatal(err)
	}
	if _, v := m.ActiveFilter(testTarget); v != 2 {
		t.Fatal("manual activation did not take")
	}
	if _, err := m.Rollback(testTarget); err != nil {
		t.Fatal(err)
	}
	if _, v := m.ActiveFilter(testTarget); v != 1 {
		t.Fatal("rollback did not restore the incumbent")
	}
}

func TestShadowGatePromotesImprovingCandidate(t *testing.T) {
	m := newTestManager(t, Config{Boot: policy.Never{}, MinSamples: 1})
	seedSynthetic(m, 8, 4)

	better, err := policy.ParseInduced(
		"# filter: better\n# labels: list orig\n(    1/   0) list :- .\n(    1/   0) orig :- .\n")
	if err != nil {
		t.Fatal(err)
	}
	m.induce = func([]*training.BenchData, int, ripper.Options) *policy.Induced { return better }

	rep, err := m.Retrain(testTarget)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Promoted || rep.ActiveVersion != 2 {
		t.Fatalf("improving candidate not promoted: %+v", rep)
	}
	f, v := m.ActiveFilter(testTarget)
	if v != 2 || !policy.Schedules(f, mkSample(mkKey(0, 0), 10, 100, 50).Feat) {
		t.Fatalf("promotion did not hot-swap the serving filter (v%d)", v)
	}
	if m.Metrics().Promotions != 1 {
		t.Fatalf("promotion not counted: %+v", m.Metrics())
	}
}

func TestPeriodicTrainerTicks(t *testing.T) {
	m := newTestManager(t, Config{Interval: 5 * time.Millisecond, MinSamples: 1 << 20})
	deadline := time.Now().Add(5 * time.Second)
	for m.Metrics().Retrains == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background trainer never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseIsIdempotentAndSafe(t *testing.T) {
	m, err := NewManager(Config{Targets: []string{testTarget}})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(testTarget, genProgram(3, 6), nil)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close observations must be silently dropped, not panic.
	m.Observe(testTarget, genProgram(4, 6), nil)
}

func TestSpillOnClose(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{Targets: []string{testTarget}, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(testTarget, genProgram(5, 20), nil)
	m.Drain()
	want := m.Reservoir(testTarget).Len()
	if want == 0 {
		t.Fatal("nothing measured")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{SpillDir: dir})
	if got := m2.Reservoir(testTarget).Len(); got != want {
		t.Fatalf("restored %d samples, spilled %d", got, want)
	}
}
