package adaptive

import (
	"reflect"
	"runtime"
	"testing"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// compileWorkload compiles one bundled benchmark with the training
// pipeline's default options.
func compileWorkload(t *testing.T, name string) (*bytecode.Module, *ir.Program) {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	opts := training.DefaultOptions()
	mod, err := w.CompileWithOptions(opts.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jit.Compile(mod, opts.JIT)
	if err != nil {
		t.Fatal(err)
	}
	return mod, prog
}

func TestPromotionCostBenefit(t *testing.T) {
	// benefit = spent · futureWeight · speedupEstimate, cost =
	// compileCyclesPerInstr · instrs: a 500-instruction function breaks
	// even well above the noise floor.
	const n = 500
	breakEven := int64(compileCycles(n) / (futureWeight * speedupEstimate))
	if breakEven <= minEstCycles {
		t.Fatalf("break-even %d not above the noise floor %d", breakEven, minEstCycles)
	}
	if shouldPromote(breakEven-1, n) {
		t.Error("promoted below the break-even point")
	}
	if !shouldPromote(breakEven+1, n) {
		t.Error("did not promote above the break-even point")
	}
	// The noise floor dominates even a favourable ratio.
	if shouldPromote(minEstCycles-1, 1) {
		t.Error("promoted below the noise floor")
	}
	if !shouldPromote(minEstCycles, 1) {
		t.Error("did not promote a one-instruction function at the noise floor")
	}
	if got := compileCycles(50); got != 50*compileCyclesPerInstr {
		t.Errorf("compileCycles(50) = %v, want %v", got, 50*compileCyclesPerInstr)
	}
}

func TestPromotionDefaults(t *testing.T) {
	m := machine.Default().Model
	cfg, err := Config{Model: m}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != (policy.Always{}) || cfg.SampleEvery != 25000 || cfg.Model != m {
		t.Errorf("zero config did not default: %+v", cfg)
	}
	cfg, err = Config{Model: m, Policy: policy.Never{}, SampleEvery: 7}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != (policy.Never{}) || cfg.SampleEvery != 7 {
		t.Errorf("explicit config was overridden: %+v", cfg)
	}
}

func TestConfigRequiresModel(t *testing.T) {
	_, prog := compileWorkload(t, "compress")
	if _, err := Run(prog, Config{}); err == nil {
		t.Fatal("Run without a model should fail")
	}
}

func TestAdaptivePreservesSemantics(t *testing.T) {
	m := machine.Default().Model
	for _, name := range []string{"compress", "jack", "scimark"} {
		mod, prog := compileWorkload(t, name)
		base, err := sim.Run(prog.Clone(), sim.Config{Timed: true, Model: m})
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		res, err := Run(prog, Config{
			Model:       m,
			Module:      mod,
			SampleEvery: 5000,
		})
		if err != nil {
			t.Fatalf("%s: adaptive: %v", name, err)
		}
		if res.Online.Ret != base.Ret {
			t.Errorf("%s: online return %d != baseline %d", name, res.Online.Ret, base.Ret)
		}
		if !reflect.DeepEqual(res.Online.Output, base.Output) {
			t.Errorf("%s: online output diverged", name)
		}
		if res.Steady.Ret != base.Ret {
			t.Errorf("%s: steady return %d != baseline %d", name, res.Steady.Ret, base.Ret)
		}
		if !reflect.DeepEqual(res.Steady.Output, base.Output) {
			t.Errorf("%s: steady output diverged", name)
		}
		mt := res.Metrics
		if mt.Samples == 0 {
			t.Errorf("%s: no profile samples", name)
		}
		if mt.Promotions == 0 {
			t.Errorf("%s: nothing promoted (policy or sampling broken)", name)
		}
		// Every promotion ends up installed, online or at shutdown.
		if mt.Installed+mt.InstalledPost != mt.Promotions {
			t.Errorf("%s: installed %d+%d != promotions %d",
				name, mt.Installed, mt.InstalledPost, mt.Promotions)
		}
		if len(mt.PromotedFns) != mt.Promotions {
			t.Errorf("%s: %d promoted names for %d promotions", name, len(mt.PromotedFns), mt.Promotions)
		}
	}
}

func TestNeverFilterSchedulesNothing(t *testing.T) {
	m := machine.Default().Model
	_, prog := compileWorkload(t, "compress")
	base, err := sim.Run(prog.Clone(), sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{
		Model:       m,
		Policy:      policy.Never{},
		SampleEvery: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.BlocksScheduled != 0 || mt.BlocksChanged != 0 {
		t.Errorf("Never filter scheduled %d blocks (changed %d)", mt.BlocksScheduled, mt.BlocksChanged)
	}
	// Promotions still happen, but without Module the controller clones
	// baseline code and the Never filter leaves it untouched, so the
	// steady state matches the baseline exactly.
	if res.Steady.Cycles != base.Cycles {
		t.Errorf("steady %d cycles != baseline %d under Never filter", res.Steady.Cycles, base.Cycles)
	}
}

func TestAlwaysFilterImprovesSteadyState(t *testing.T) {
	m := machine.Default().Model
	_, prog := compileWorkload(t, "scimark") // scheduling-sensitive FP kernel
	base, err := sim.Run(prog.Clone(), sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{Model: m, SampleEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady.Cycles >= base.Cycles {
		t.Errorf("adaptive LS steady state %d cycles, want < baseline %d",
			res.Steady.Cycles, base.Cycles)
	}
}

func TestInputProgramNotMutated(t *testing.T) {
	m := machine.Default().Model
	_, prog := compileWorkload(t, "compress")
	before := prog.String()
	if _, err := Run(prog, Config{Model: m, SampleEvery: 2000}); err != nil {
		t.Fatal(err)
	}
	if prog.String() != before {
		t.Error("adaptive run mutated the input program")
	}
}

// TestAdaptiveRunDeterministic pins that an adaptive run measures the
// model, not the host: recompiling at the promoting sample leaves nothing
// for the scheduler of goroutines to decide, so the online run, the
// install counts and the steady state repeat exactly at any GOMAXPROCS.
func TestAdaptiveRunDeterministic(t *testing.T) {
	mod, prog := compileWorkload(t, "jack")
	cfg := Config{
		Model:       machine.Default().Model,
		Module:      mod,
		SampleEvery: 5000,
	}
	var runs [2]*Result
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := Run(prog, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS(%d): %v", procs, err)
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if a.Metrics.Promotions == 0 {
		t.Fatal("no promotions: the comparison would be vacuous")
	}
	if a.Online.Cycles != b.Online.Cycles {
		t.Errorf("online cycles %d at GOMAXPROCS(1), %d at GOMAXPROCS(4)", a.Online.Cycles, b.Online.Cycles)
	}
	if a.Metrics.Installed != b.Metrics.Installed || a.Metrics.InstalledPost != b.Metrics.InstalledPost {
		t.Errorf("installed %d+%d at GOMAXPROCS(1), %d+%d at GOMAXPROCS(4)",
			a.Metrics.Installed, a.Metrics.InstalledPost, b.Metrics.Installed, b.Metrics.InstalledPost)
	}
	if !reflect.DeepEqual(a.Metrics.PromotedFns, b.Metrics.PromotedFns) {
		t.Errorf("promoted %v at GOMAXPROCS(1), %v at GOMAXPROCS(4)", a.Metrics.PromotedFns, b.Metrics.PromotedFns)
	}
	if a.Steady.Cycles != b.Steady.Cycles {
		t.Errorf("steady cycles %d at GOMAXPROCS(1), %d at GOMAXPROCS(4)", a.Steady.Cycles, b.Steady.Cycles)
	}
}
