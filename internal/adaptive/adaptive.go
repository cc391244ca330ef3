// Package adaptive is a Jikes-RVM-style adaptive optimization system
// (AOS) built over the reproduction's pipeline: programs start in the
// baseline tier (unscheduled machine code, compiled as fast as possible),
// a sampling profiler watches execution, and a controller promotes hot
// functions to the optimized tier — recompiled at the sample that
// promotes them, with the list scheduler gated by an induced
// whether-to-schedule filter — then hot-swaps them into the running
// program at safe points.
//
// The paper built its filter for exactly this setting: in an adaptive
// system the scheduler's cost is paid at run time and must be amortized
// against the code's remaining executions, so deciding *whether* (and,
// here, *when*) to schedule is a genuine resource-allocation problem.
// The moving parts mirror Jikes RVM's AOS:
//
//	 timed simulator ── profile snapshot ──► controller
//	      ▲                                 (cost/benefit)
//	      │                                      │ promote
//	hot-swap at the first safe point             ▼
//	      │                              recompile at the sample
//	      └────────── recompiled fns ◄── (filter-gated list scheduling)
//
// The controller promotes a baseline function when the estimated future
// cycles saved exceed the modelled compile cost,
//
//	estSpentCycles(f) · futureWeight · speedupEstimate  >  compileCyclesPerInstr · |f|
//
// with future execution estimated from the profile under the
// "future = past" assumption Jikes RVM's controller makes. Scheduling
// effort really is paid where the paper says it is: in the recompile,
// measured per function, with the filter deciding per block whether the
// list scheduler runs at all.
//
// The simulator's cycles do not advance while a recompile runs, and
// sample points depend on the executed instruction count alone, so a run
// is deterministic: the same program and configuration give the same
// online cycles, install counts and steady state on any host.
package adaptive

import (
	"errors"
	"fmt"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
)

// Config parameterizes an adaptive run.
type Config struct {
	// Model is the machine timing model; it is required.
	Model *machine.Model
	// Policy gates the list scheduler inside the optimized tier (the
	// whether-to-schedule decision procedure); nil means always schedule
	// (plain LS at the top tier).
	Policy policy.Policy
	// Module, when set, lets the controller recompile promoted functions
	// from bytecode through the full JIT pipeline (jit.CompileFn);
	// without it, it clones the baseline machine code before scheduling
	// it.
	Module *bytecode.Module
	// SampleEvery is the profile sampling period in executed
	// instructions (default 25000).
	SampleEvery int64
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Model == nil {
		return cfg, errors.New("adaptive: config requires a machine model")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.Always{}
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 25000
	}
	return cfg, nil
}

// Result reports an adaptive run.
type Result struct {
	// Online is the adaptive run itself: baseline start, sampling,
	// hot-swaps mid-flight. Its cycle count includes the pre-promotion
	// transient a real adaptive system pays.
	Online *sim.Result
	// Steady is a timed rerun of the post-adaptation program — the
	// regime a long-running service settles into once the hot code is
	// all promoted.
	Steady *sim.Result
	// Prog is the final program with every promotion installed.
	Prog *ir.Program
	// Metrics are the controller's per-tier counters.
	Metrics Metrics
}

// Run executes the program adaptively: it clones prog into a baseline
// tier, runs it on the timed simulator with the sampling hook attached,
// recompiles hot functions as they are promoted, and measures the
// post-adaptation steady state. The input program is not mutated.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	work := prog.Clone()
	c := newController(work, cfg)
	online, err := sim.Run(work, sim.Config{
		Timed:       true,
		Model:       cfg.Model,
		SampleEvery: cfg.SampleEvery,
		OnSample:    c.onSample,
	})
	if err != nil {
		return nil, fmt.Errorf("adaptive: online run: %w", err)
	}
	c.finish()
	steady, err := sim.Run(work, sim.Config{Timed: true, Model: cfg.Model})
	if err != nil {
		return nil, fmt.Errorf("adaptive: steady-state run: %w", err)
	}
	return &Result{Online: online, Steady: steady, Prog: work, Metrics: c.metrics}, nil
}
