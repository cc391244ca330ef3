package schedfilter

import (
	"math/rand"
	"sync"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/core"
	"schedfilter/internal/experiments"
	"schedfilter/internal/features"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// The table/figure benchmarks share one experiment runner: benchmark data
// collection and filter induction are cached after the first use, so each
// benchmark measures the marginal cost of regenerating its experiment.
var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func sharedRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		runner = experiments.NewRunner(experiments.DefaultConfig())
	})
	return runner
}

// --- One benchmark per paper table ---

// BenchmarkTable3 regenerates the classification error-rate table
// (leave-one-out cross-validation over all thresholds).
func BenchmarkTable3(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		res, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Err) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4 regenerates the predicted-execution-time table.
func BenchmarkTable4(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the training-set-size table.
func BenchmarkTable5(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the run-time classification table.
func BenchmarkTable6(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper figure ---

// Figure 1 is Figure 2's t=0 row, so Figure 2's benchmarks time it.

// BenchmarkFigure2a regenerates the scheduling-cost threshold sweep
// (Figure 2a).
func BenchmarkFigure2a(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.SchedCostFigure(workloads.SuiteJVM98, experiments.Thresholds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2b regenerates the application-time threshold sweep
// (Figure 2b).
func BenchmarkFigure2b(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.AppTimeFigure(workloads.SuiteJVM98, experiments.Thresholds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3a regenerates the benefits-suite scheduling-cost sweep
// (Figure 3a).
func BenchmarkFigure3a(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.SchedCostFigure(workloads.SuiteFP, experiments.Thresholds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3b regenerates the benefits-suite application-time sweep
// (Figure 3b).
func BenchmarkFigure3b(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.AppTimeFigure(workloads.SuiteFP, experiments.Thresholds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the sample induced rule set (Figure 4).
func BenchmarkFigure4(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		rs, err := r.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if rs.String() == "" {
			b.Fatal("empty rule set")
		}
	}
}

// BenchmarkAblation regenerates the filter-family ablation (beyond the
// paper: induced vs size thresholds vs oracle).
func BenchmarkAblation(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serial vs parallel experiment engine ---

// sweepOnce runs the main table sweep (3+4+6) on a fresh runner with the
// given worker count — cold caches every iteration, so serial and parallel
// benchmarks measure the same total work.
func sweepOnce(b *testing.B, jobs int) {
	b.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Jobs = jobs
	r := experiments.NewRunner(cfg)
	if _, err := r.Table3(); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Table4(); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Table6(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepSerial measures the full leave-one-out table sweep on the
// serial engine (-j 1).
func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, 1)
	}
}

// BenchmarkSweepParallel measures the same sweep fanned across GOMAXPROCS
// workers; compare against BenchmarkSweepSerial with benchstat (see
// docs/perf.md — on a single-CPU host the two are equal by construction).
func BenchmarkSweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, 0)
	}
}

// --- Micro-benchmarks of the core components ---

// BenchmarkCostEstimator measures the simplified machine timing estimator.
func BenchmarkCostEstimator(b *testing.B) {
	m := machine.Default().Model
	r := rand.New(rand.NewSource(2))
	blocks := make([]*Block, 64)
	for i := range blocks {
		blocks[i] = blockgen.GenBlock(r, blockgen.DefaultConfig, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.EstimateBlockCost(m, blocks[i%len(blocks)])
	}
}

// BenchmarkFilterEvaluation measures one induced-filter decision
// (features + rule evaluation) — the paper's claim is that this is far
// cheaper than scheduling.
func BenchmarkFilterEvaluation(b *testing.B) {
	m := machine.Default().Model
	data, err := training.CollectAllJobs(workloads.Suite1(), m, training.DefaultOptions(), 0)
	if err != nil {
		b.Fatal(err)
	}
	f := training.TrainFilter(data, 0, ripper.DefaultOptions(), nil)
	r := rand.New(rand.NewSource(4))
	blocks := make([]*Block, 64)
	for i := range blocks {
		blocks[i] = blockgen.GenBlock(r, blockgen.DefaultConfig, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i%len(blocks)]
		policy.Schedules(f, features.ExtractBlock(blk))
	}
}

// BenchmarkRipperInduce measures rule induction on the full suite-1
// training set (the paper: "induces heuristics in seconds").
func BenchmarkRipperInduce(b *testing.B) {
	m := machine.Default().Model
	data, err := training.CollectAllJobs(workloads.Suite1(), m, training.DefaultOptions(), 0)
	if err != nil {
		b.Fatal(err)
	}
	var all []training.BlockRecord
	for _, bd := range data {
		all = append(all, bd.Records...)
	}
	ds := training.Label(all, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := ripper.Induce(ds, ripper.DefaultOptions())
		if rs == nil {
			b.Fatal("no rule set")
		}
	}
}

// BenchmarkSchedulingPassLS measures the whole always-schedule pass over
// a compiled benchmark (the denominator of Figures 1a/2a/3a).
func BenchmarkSchedulingPassLS(b *testing.B) {
	m := machine.Default().Model
	w := workloads.ByName("raytrace")
	mod, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := jit.Compile(mod, jit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Apply(m, prog.Clone(), policy.Always{}, core.Pass{})
	}
}

// BenchmarkSuperblocks regenerates the superblock-vs-local comparison
// (the paper's deferred extension, implemented here).
func BenchmarkSuperblocks(b *testing.B) {
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Superblocks(workloads.SuiteFP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuperblockScheduling measures forming and scheduling the
// superblocks of one compiled benchmark.
func BenchmarkSuperblockScheduling(b *testing.B) {
	m := machine.Default().Model
	w := workloads.ByName("scimark")
	mod, err := w.CompileWithOptions(joltOptions4())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := jit.Compile(mod, jit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Run(prog, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ApplySuperblocks(m, prog.Clone(), prof.ExecCounts, prof.TakenCounts, policy.Always{})
	}
}

func joltOptions4() jolt.Options { return jolt.Options{UnrollFactor: 4} }
