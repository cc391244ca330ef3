// Package schedfilter is a from-scratch reproduction of Cavazos & Moss,
// "Inducing Heuristics To Decide Whether To Schedule" (PLDI 2004): learning
// cheap per-basic-block filters that predict whether running an instruction
// scheduler on a block is worth the compile time.
//
// The package is the public facade over the full system:
//
//   - a small Java-flavoured language (Jolt) with a compiler to stack
//     bytecode, standing in for Java;
//   - an optimizing JIT (aggressive inlining, stack-to-register lowering,
//     hazard insertion, linear-scan register allocation) targeting a
//     PowerPC 7410-flavoured machine IR, standing in for Jikes RVM;
//   - a critical-path list scheduler and the simplified machine timing
//     estimator it shares with the training pipeline;
//   - the Ripper rule-induction algorithm, the Table-1 block features,
//     threshold labelling, and leave-one-out cross-validation;
//   - a whole-program cycle simulator for application-running-time
//     measurements, plus thirteen benchmark programs reproducing the
//     computational character of the paper's two suites;
//   - a Jikes-RVM-style adaptive optimization system: baseline tier,
//     sampling profiler, and a cost/benefit controller that recompiles
//     hot functions with filter-gated scheduling at the sample that
//     promotes them and hot-swaps them in at safe points.
//
// Quick start:
//
//	prog, _ := schedfilter.CompileSource(src)         // Jolt → machine IR
//	m := schedfilter.NewMachine()
//	filter, _ := schedfilter.TrainDefaultFilter(m, 20) // induce L/N at t=20
//	stats := schedfilter.Schedule(m, prog, filter)     // filtered scheduling
//	res, _ := schedfilter.Execute(prog, m, true)       // timed simulation
//	ad, _ := schedfilter.ExecuteAdaptive(prog,         // adaptive tiers
//	    schedfilter.DefaultAdaptiveConfig(m, filter))
//
// The experiment harness reproducing every table and figure of the paper
// lives behind NewExperimentRunner; `go test -bench .` regenerates them as
// benchmarks, and cmd/schedexp prints them.
package schedfilter

import (
	"fmt"
	"os"

	"schedfilter/internal/adaptive"
	"schedfilter/internal/bytecode"
	"schedfilter/internal/codecache"
	"schedfilter/internal/core"
	"schedfilter/internal/experiments"
	"schedfilter/internal/features"
	"schedfilter/internal/interp"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// Re-exported core types. The facade uses type aliases so values flow
// freely between the public API and the subsystem packages.
type (
	// Machine is the timing model of the target processor.
	Machine = machine.Model
	// Program is JIT-compiled machine code: functions of basic blocks.
	Program = ir.Program
	// Block is one basic block of machine instructions.
	Block = ir.Block
	// Module is verified stack bytecode (the JIT's input).
	Module = bytecode.Module
	// FeatureVector is the paper's 13 cheap block features (Table 1).
	FeatureVector = features.Vector
	// Policy is the pluggable scheduling decision procedure — whether to
	// run the list scheduler on a block: Name, Decide (schedule +
	// confidence), Provenance.
	Policy = policy.Policy
	// PolicyKind is one registered policy constructor (the unit of the
	// policy registry, as Target is for machines).
	PolicyKind = policy.Kind
	// InducedFilter is a learned (Ripper rule set) filter.
	InducedFilter = policy.Induced
	// RuleSet is an ordered Ripper rule list.
	RuleSet = ripper.RuleSet
	// ScheduleStats reports what a scheduling pass did.
	ScheduleStats = core.Stats
	// ScheduleResult reports what scheduling did to one block.
	ScheduleResult = sched.Result
	// SimResult is a simulator run's outcome.
	SimResult = sim.Result
	// InterpResult is a bytecode-interpreter run's outcome.
	InterpResult = interp.Result
	// BenchData is one benchmark's collected training instances.
	BenchData = training.BenchData
	// BlockRecord is one raw training instance.
	BlockRecord = training.BlockRecord
	// Workload is one bundled benchmark program.
	Workload = workloads.Workload
	// JITOptions configure compilation.
	JITOptions = jit.Options
	// CompileOptions bundle front-end and JIT configuration for the
	// training/evaluation pipeline.
	CompileOptions = training.Options
	// RipperOptions configure rule induction.
	RipperOptions = ripper.Options
	// ExperimentRunner regenerates the paper's tables and figures.
	ExperimentRunner = experiments.Runner
	// ExperimentConfig parameterizes the harness.
	ExperimentConfig = experiments.Config
	// AdaptiveConfig parameterizes the adaptive optimization system.
	AdaptiveConfig = adaptive.Config
	// AdaptiveResult reports an adaptive run (online + steady state).
	AdaptiveResult = adaptive.Result
	// ScheduleCache is the content-addressed scheduled-block cache the
	// compile service runs on.
	ScheduleCache = codecache.Cache
	// CacheKey is a 256-bit content fingerprint of a block or program.
	CacheKey = codecache.Key
	// Target is a named, immutable machine model from the target
	// registry. Every layer that needs a machine resolves one of these;
	// the registered Model must not be mutated (Clone it for variants).
	Target = machine.Target
)

// Fixed protocols (the paper's baselines).
var (
	// AlwaysSchedule is the LS protocol.
	AlwaysSchedule Policy = policy.Always{}
	// NeverSchedule is the NS protocol.
	NeverSchedule Policy = policy.Never{}
)

// FeatureNames lists the Table-1 feature names in vector order.
var FeatureNames = features.Names[:]

// DefaultTargetName is the registry name of the default machine target
// (the paper's MPC7410 simplified machine simulator).
const DefaultTargetName = machine.DefaultTargetName

// Targets lists every registered machine target, default first.
func Targets() []*Target { return machine.All() }

// TargetByName resolves a registered machine target; the error for an
// unknown name lists the known targets.
func TargetByName(name string) (*Target, error) { return machine.ByName(name) }

// DefaultTarget returns the default machine target (DefaultTargetName).
func DefaultTarget() *Target { return machine.Default() }

// NewMachine returns a fresh, mutable copy of the default target's
// MPC7410-flavoured timing model. Code that only reads the model can use
// DefaultTarget().Model directly and skip the copy.
func NewMachine() *Machine { return machine.Default().Model.Clone() }

// DefaultJITOptions mirror the paper's OptOpt configuration (aggressive
// inlining: callee <= 30, depth <= 6, expansion <= 7x); that is the zero
// JITOptions.
func DefaultJITOptions() JITOptions { return jit.Options{} }

// DefaultRipperOptions mirror the paper's Ripper usage.
func DefaultRipperOptions() RipperOptions { return ripper.DefaultOptions() }

// CompileJolt compiles Jolt source to bytecode; CompileModule and
// Interpret verify it.
func CompileJolt(src string) (*Module, error) { return jolt.Compile(src, jolt.Options{}) }

// CompileModule JIT-compiles bytecode to machine code (unscheduled).
func CompileModule(m *Module, opts JITOptions) (*Program, error) {
	return jit.Compile(m, opts)
}

// CompileSource compiles Jolt source all the way to machine code with the
// default JIT options.
func CompileSource(src string) (*Program, error) {
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		return nil, err
	}
	return jit.Compile(mod, jit.Options{})
}

// Interpret runs bytecode in the reference interpreter (the semantic
// oracle). limit bounds executed instructions; 0 means a generous default.
func Interpret(m *Module, limit int64) (*InterpResult, error) {
	return interp.Run(m, limit)
}

// Execute runs compiled machine code on the simulator. With timed set,
// the result includes the cycle count under the machine's issue model.
func Execute(p *Program, m *Machine, timed bool) (*SimResult, error) {
	return sim.Run(p, sim.Config{Timed: timed, Model: m})
}

// ExtractFeatures computes a block's feature vector (one pass).
func ExtractFeatures(b *Block) FeatureVector { return features.ExtractBlock(b) }

// EstimateCost runs the simplified block timing estimator on the block in
// its current order.
func EstimateCost(m *Machine, b *Block) int { return machine.EstimateBlockCost(m, b) }

// ScheduleBlock list-schedules one block in place (critical-path
// scheduling) and reports the before/after cost estimates.
func ScheduleBlock(m *Machine, b *Block) ScheduleResult {
	s := sched.GetScratch()
	defer sched.PutScratch(s)
	res, _ := sched.ScheduleBlock(m, b, nil, s)
	return res
}

// Schedule applies the policy-gated scheduling pass to a whole program in
// place, timing the pass (features and policy evaluation included).
func Schedule(m *Machine, p *Program, f Policy) ScheduleStats {
	return core.Apply(m, p, f, core.Pass{})
}

// NewScheduleCache returns a content-addressed scheduled-block cache
// bounded to approximately maxWeight words (Σ over entries of
// 1+len(order)); maxWeight <= 0 selects a default. Safe for concurrent
// use; share one cache across every ScheduleWithCache call.
func NewScheduleCache(maxWeight int) *ScheduleCache { return codecache.New(maxWeight) }

// ScheduleWithCache is Schedule backed by a content-addressed cache:
// blocks whose instruction content has been scheduled before (on the same
// machine model, in any program) replay the cached order instead of
// re-running the list scheduler. The returned stats split Scheduled into
// CacheHits and CacheMisses.
func ScheduleWithCache(m *Machine, p *Program, f Policy, c *ScheduleCache) ScheduleStats {
	return core.Apply(m, p, f, core.Pass{Cache: c})
}

// ScheduleWithCacheTimed is ScheduleWithCache with per-phase timing on:
// the returned stats' Phases field breaks the pass's wall time into
// cache-lookup, DAG-build, list-schedule, and estimator components, as
// the compile server's passes do to populate request traces; the
// breakdown adds no allocations to the scheduling hot path.
func ScheduleWithCacheTimed(m *Machine, p *Program, f Policy, c *ScheduleCache) ScheduleStats {
	return core.Apply(m, p, f, core.Pass{Cache: c, Timed: true})
}

// FingerprintBlock returns the content fingerprint under which a block's
// scheduling result is cached: a hash of its instruction stream and the
// machine model name.
func FingerprintBlock(m *Machine, b *Block) CacheKey {
	return codecache.BlockKey(m.Name, b.Instrs)
}

// FingerprintProgram returns a whole-program content fingerprint (every
// function's every block, plus the model name and a caller-chosen context
// label such as the filter name). The compile service uses it to
// recognize identical compile inputs across requests.
func FingerprintProgram(m *Machine, context string, p *Program) CacheKey {
	return codecache.ProgramKey(m.Name, context, p)
}

// NewRuleFilter wraps a Ripper rule set as a filter.
func NewRuleFilter(rs *RuleSet, label string) *InducedFilter {
	return policy.NewInduced(rs, label)
}

// ParseRuleSet reads a rule set in the Figure-4 text format, resolving
// attribute names against the Table-1 feature names.
func ParseRuleSet(text string) (*RuleSet, error) {
	return ripper.Parse(text, FeatureNames)
}

// SizeFilter returns the hand-written baseline filter that schedules
// blocks of at least minLen instructions.
func SizeFilter(minLen int) Policy { return policy.SizeThreshold{MinLen: minLen} }

// Schedules is the boolean projection of a policy's Decide, for call
// sites that don't need the confidence.
func Schedules(p Policy, v FeatureVector) bool { return policy.Schedules(p, v) }

// PolicyKinds lists every policy kind in table order (the /v1/policies listing order).
func PolicyKinds() []*PolicyKind { return policy.Kinds() }

// FormatFilter renders an induced filter as persistent model text: a
// "# filter: <label>" header, a "# target: <name>" header when the
// filter records its training target, plus the rule set in the
// round-trippable full-precision format. ParseFilter inverts it exactly.
func FormatFilter(f *InducedFilter) string { return policy.FormatInduced(f) }

// ParseFilter reads model text produced by FormatFilter (or any rule text
// in the Figure-4 format; the label and target headers are optional).
// Attribute names resolve against the Table-1 feature names.
func ParseFilter(text string) (*InducedFilter, error) { return policy.ParseInduced(text) }

// FilterID returns a policy's stable content identity: fixed protocols
// by name, induced filters by label plus a digest of their rule text. The
// compile server folds it into program fingerprints, singleflight keys and
// cluster routing keys, so two filter versions that share a display name
// can never alias in any content-addressed cache.
func FilterID(p Policy) string { return policy.ID(p) }

// SaveFilter writes the induced filter to path as model text — the file
// the compile-server daemon (cmd/schedserved) boots from.
func SaveFilter(path string, f *InducedFilter) error {
	return os.WriteFile(path, []byte(FormatFilter(f)), 0o644)
}

// LoadFilter reads a model file written by SaveFilter (or schedtrain -o).
// The returned filter's Target metadata is whatever the file recorded; it
// is the caller's job to compare it against the machine actually in use
// (LoadFilterFor does both).
func LoadFilter(path string) (*InducedFilter, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := ParseFilter(string(buf))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// LoadFilterFor is LoadFilter for use under a specific machine target: if
// the model file records a different training target, a warning naming
// both targets is printed to stderr; likewise if the file's "# policy:"
// header declares a kind other than ripper. The filter still loads —
// features are target-independent and the rule text is what it is, so
// applying it is legal, just possibly mistuned; the metadata on the
// result lets callers decide.
func LoadFilterFor(path, target string) (*InducedFilter, error) {
	return policy.LoadInducedFor(path, target)
}

// Workloads returns all bundled benchmark programs (suite 1 then suite 2).
func Workloads() []Workload { return workloads.All() }

// WorkloadsSuite1 returns the SPECjvm98 stand-ins.
func WorkloadsSuite1() []Workload { return workloads.Suite1() }

// WorkloadsSuite2 returns the FP suite that benefits from scheduling.
func WorkloadsSuite2() []Workload { return workloads.Suite2() }

// WorkloadByName returns the named bundled benchmark, or an error.
func WorkloadByName(name string) (*Workload, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("schedfilter: no workload named %q", name)
	}
	return w, nil
}

// DefaultCompileOptions mirror the paper's OptOpt configuration plus
// 4-way loop unrolling (see DESIGN.md).
func DefaultCompileOptions() CompileOptions { return training.DefaultOptions() }

// CollectTrainingData compiles the workload and gathers one training
// instance per basic block (features, both cost estimates, profiled
// execution counts).
func CollectTrainingData(w *Workload, m *Machine, opts CompileOptions) (*BenchData, error) {
	return training.Collect(w, m, opts)
}

// CollectAllTrainingData gathers BenchData for a set of workloads, fanning
// the per-workload compilation and profiling across at most jobs workers
// (jobs <= 0 selects runtime.GOMAXPROCS(0), 1 forces the serial path).
// Results are in workload order and identical at every job count.
func CollectAllTrainingData(ws []Workload, m *Machine, opts CompileOptions, jobs int) ([]*BenchData, error) {
	return training.CollectAllJobs(ws, m, opts, jobs)
}

// TrainFilter induces an L/N filter at threshold t (percent) from the
// given benchmarks' instances.
func TrainFilter(data []*BenchData, t int, opt RipperOptions) *InducedFilter {
	return training.TrainFilter(data, t, opt, nil)
}

// TrainLeaveOneOut induces a filter for the target benchmark from every
// other benchmark's instances (the paper's cross-validation protocol).
func TrainLeaveOneOut(data []*BenchData, target string, t int, opt RipperOptions) *InducedFilter {
	return training.LeaveOneOut(data, target, t, opt, nil)
}

// TrainDefaultFilter collects the suite-1 workloads and induces a single
// filter at threshold t — the "at the factory" filter a JIT would ship.
func TrainDefaultFilter(m *Machine, t int) (*InducedFilter, error) {
	data, err := training.CollectAllJobs(workloads.Suite1(), m, training.DefaultOptions(), 0)
	if err != nil {
		return nil, err
	}
	return training.TrainFilter(data, t, ripper.DefaultOptions(), nil), nil
}

// DefaultAdaptiveConfig configures the adaptive optimization system with
// the stock sampling rate and promotion policy. Set Module on the result
// to recompile promoted functions from bytecode rather than from
// baseline machine code.
func DefaultAdaptiveConfig(m *Machine, f Policy) AdaptiveConfig {
	return AdaptiveConfig{Model: m, Policy: f}
}

// ExecuteAdaptive runs compiled machine code on the adaptive optimization
// system: it starts in the baseline (unscheduled) tier, samples the
// execution profile, recompiles hot functions to filter-gated scheduled
// code at the sample that promotes them, hot-swaps them in at safe
// points, and reports both the online run and the post-adaptation steady
// state. The run is deterministic. The input program is not mutated.
func ExecuteAdaptive(p *Program, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	return adaptive.Run(p, cfg)
}

// NewExperimentRunner builds the harness that regenerates the paper's
// tables and figures.
func NewExperimentRunner(cfg ExperimentConfig) *ExperimentRunner {
	return experiments.NewRunner(cfg)
}

// DefaultExperimentConfig is the configuration used by EXPERIMENTS.md.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }
