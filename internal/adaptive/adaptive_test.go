package adaptive

import (
	"reflect"
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
	p := Promotion{
		SpeedupEstimate:       0.10,
		CompileCyclesPerInstr: 20,
		FutureWeight:          1,
		MinEstCycles:          1000,
	}
	// benefit = spent * 0.1, cost = 20 * instrs: a 100-instr function
	// needs spent > 20000.
	if p.ShouldPromote(19999, 100) {
		t.Error("promoted below the break-even point")
	}
	if !p.ShouldPromote(20001, 100) {
		t.Error("did not promote above the break-even point")
	}
	// The noise floor dominates even a favourable ratio.
	if p.ShouldPromote(999, 1) {
		t.Error("promoted below the noise floor")
	}
	if got := p.CompileCycles(50); got != 1000 {
		t.Errorf("CompileCycles(50) = %v, want 1000", got)
	}
}

func TestPromotionDefaults(t *testing.T) {
	p := Promotion{}.withDefaults()
	if !reflect.DeepEqual(p, DefaultPromotion()) {
		t.Errorf("zero promotion policy did not default: %+v", p)
	}
	p = Promotion{SpeedupEstimate: 0.5}.withDefaults()
	if p.SpeedupEstimate != 0.5 || p.CompileCyclesPerInstr != DefaultPromotion().CompileCyclesPerInstr {
		t.Errorf("partial promotion policy mis-defaulted: %+v", p)
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
			JIT:         training.DefaultOptions().JIT,
			SampleEvery: 5000,
			Workers:     4,
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
		if mt.Recompiled == 0 {
			t.Errorf("%s: nothing recompiled (policy or sampling broken)", name)
		}
		// Every finished recompilation ends up installed, online or at
		// shutdown.
		if mt.Installed+mt.InstalledPost != mt.Recompiled {
			t.Errorf("%s: installed %d+%d != recompiled %d",
				name, mt.Installed, mt.InstalledPost, mt.Recompiled)
		}
		if mt.Recompiled > mt.Promotions {
			t.Errorf("%s: recompiled %d > promotions %d", name, mt.Recompiled, mt.Promotions)
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
	// Promotions still happen, but without Module the workers clone
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

func TestBoundedQueueBackpressure(t *testing.T) {
	m := machine.Default().Model
	_, prog := compileWorkload(t, "jack")
	res, err := Run(prog, Config{
		Model:       m,
		SampleEvery: 2000,
		Workers:     1,
		QueueDepth:  1,
		Promotion:   Promotion{MinEstCycles: 1}, // promote everything warm
	})
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if mt.Installed+mt.InstalledPost != mt.Recompiled {
		t.Errorf("installed %d+%d != recompiled %d", mt.Installed, mt.InstalledPost, mt.Recompiled)
	}
	if mt.MaxQueueDepth > 1 {
		t.Errorf("queue depth %d exceeded its bound 1", mt.MaxQueueDepth)
	}
}

func TestSkipSteady(t *testing.T) {
	m := machine.Default().Model
	_, prog := compileWorkload(t, "compress")
	res, err := Run(prog, Config{Model: m, SkipSteady: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady != nil {
		t.Error("SkipSteady still measured a steady state")
	}
	if res.Prog == nil || res.Online == nil {
		t.Error("result missing program or online run")
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

func TestConfigResolvesTargetName(t *testing.T) {
	if _, err := (Config{Target: "z80"}).withDefaults(); err == nil {
		t.Fatal("unknown target accepted")
	}
	cfg, err := (Config{Target: "scalar1"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if want := machine.MustByName("scalar1").Model; cfg.Model != want {
		t.Fatalf("Target scalar1 resolved to model %v, want the registry's", cfg.Model)
	}
	// An explicit model wins over the name: Target is a convenience, not
	// an override.
	def := machine.Default().Model
	cfg, err = (Config{Model: def, Target: "scalar1"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model != def {
		t.Fatal("explicit model was displaced by Target")
	}
	// And the resolved config actually runs.
	_, prog := compileWorkload(t, "compress")
	if _, err := Run(prog, Config{Target: "scalar1", SkipSteady: true}); err != nil {
		t.Fatal(err)
	}
}
