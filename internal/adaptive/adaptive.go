// Package adaptive is a Jikes-RVM-style adaptive optimization system
// (AOS) built over the reproduction's pipeline: programs start in the
// baseline tier (unscheduled machine code, compiled as fast as possible),
// a sampling profiler watches execution, and a controller promotes hot
// functions to the optimized tier — recompiled on a concurrent background
// worker pool with the list scheduler gated by an induced
// whether-to-schedule filter — then hot-swaps them into the running
// program at safe points.
//
// The paper built its filter for exactly this setting: in an adaptive
// system the scheduler's cost is paid at run time and must be amortized
// against the code's remaining executions, so deciding *whether* (and,
// here, *when*) to schedule is a genuine resource-allocation problem.
// The moving parts mirror Jikes RVM's AOS:
//
//	 timed simulator ── profile snapshots ──► controller
//	      ▲                                  (cost/benefit)
//	      │                                       │ promote
//	hot-swap at safe points                       ▼
//	      │                                 bounded queue
//	      └──── recompiled fns ◄──── background worker pool
//	                                (filter-gated list scheduling)
//
// The controller promotes a baseline function when the estimated future
// cycles saved exceed the modelled compile cost,
//
//	estSpentCycles(f) · FutureWeight · SpeedupEstimate  >  CompileCyclesPerInstr · |f|
//
// with future execution estimated from the profile under the
// "future = past" assumption Jikes RVM's controller makes. Scheduling
// effort really is paid where the paper says it is: on the compile
// queue, measured per function, with the filter deciding per block
// whether the list scheduler runs at all.
package adaptive

import (
	"errors"
	"fmt"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
)

// Config parameterizes an adaptive run.
type Config struct {
	// Model is the machine timing model. When nil, Target picks it from
	// the registry; at least one of the two must identify a machine.
	Model *machine.Model
	// Target names a registered machine target to run against. It is
	// consulted only when Model is nil; an unknown name is an error.
	Target string
	// Policy gates the list scheduler inside the optimized tier (the
	// whether-to-schedule decision procedure); nil means always schedule
	// (plain LS at the top tier).
	Policy policy.Policy
	// Module, when set, lets workers recompile promoted functions from
	// bytecode through the full JIT pipeline (jit.CompileFn); without it
	// they clone the baseline machine code before scheduling it.
	Module *bytecode.Module
	// JIT configures recompilation when Module is set.
	JIT jit.Options
	// SampleEvery is the profile sampling period in executed
	// instructions (default 25000).
	SampleEvery int64
	// Workers sizes the background compilation pool (default 2).
	Workers int
	// QueueDepth bounds the promotion queue; when it is full, promotions
	// are deferred to a later sample (default 16).
	QueueDepth int
	// Promotion tunes the controller's cost/benefit promotion decision
	// (when to recompile, as opposed to Policy's whether to schedule).
	// Zero-valued fields take their defaults.
	Promotion Promotion
	// MemWords and StepLimit configure the underlying simulator runs
	// (zero values mean the simulator defaults).
	MemWords  int
	StepLimit int64
	// SkipSteady skips the post-adaptation steady-state measurement.
	SkipSteady bool
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Model == nil {
		if cfg.Target == "" {
			return cfg, errors.New("adaptive: config requires a machine model or target name")
		}
		tgt, err := machine.ByName(cfg.Target)
		if err != nil {
			return cfg, fmt.Errorf("adaptive: %w", err)
		}
		cfg.Model = tgt.Model
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.Always{}
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 25000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	cfg.Promotion = cfg.Promotion.withDefaults()
	return cfg, nil
}

// Result reports an adaptive run.
type Result struct {
	// Online is the adaptive run itself: baseline start, sampling,
	// hot-swaps mid-flight. Its cycle count includes the pre-promotion
	// transient a real adaptive system pays.
	Online *sim.Result
	// Steady is a timed rerun of the post-adaptation program (nil when
	// Config.SkipSteady) — the regime a long-running service settles
	// into once the hot code is all promoted.
	Steady *sim.Result
	// Prog is the final program with every completed promotion
	// installed.
	Prog *ir.Program
	// Metrics are the controller's per-tier counters.
	Metrics Metrics
}

// Run executes the program adaptively: it clones prog into a baseline
// tier, runs it on the timed simulator with the sampling hook attached,
// promotes hot functions through the background pool, and (unless
// SkipSteady) measures the post-adaptation steady state. The input
// program is not mutated.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	work := prog.Clone()
	c := newController(work, cfg)
	defer c.Close()
	online, err := sim.Run(work, sim.Config{
		MemWords:    cfg.MemWords,
		Timed:       true,
		Model:       cfg.Model,
		StepLimit:   cfg.StepLimit,
		SampleEvery: cfg.SampleEvery,
		OnSample:    c.onSample,
	})
	if err != nil {
		return nil, fmt.Errorf("adaptive: online run: %w", err)
	}
	c.Close() // drain the pool and install late recompilations
	res := &Result{Online: online, Prog: work, Metrics: c.metrics}
	if !cfg.SkipSteady {
		steady, err := sim.Run(work, sim.Config{
			MemWords:  cfg.MemWords,
			Timed:     true,
			Model:     cfg.Model,
			StepLimit: cfg.StepLimit,
		})
		if err != nil {
			return nil, fmt.Errorf("adaptive: steady-state run: %w", err)
		}
		res.Steady = steady
	}
	return res, nil
}
