// Package training implements the paper's learning methodology: as the
// JIT compiles each benchmark, every basic block yields a raw instance —
// its cheap static features plus the simplified simulator's cost estimate
// for the original order and for the list-scheduled order. Threshold
// labelling turns raw instances into a Ripper training set (LS if
// scheduling improved the estimate by more than t%, NS if it did not help
// at all, dropped otherwise), and leave-one-out cross-validation trains a
// filter for each benchmark on the other benchmarks' instances.
package training

import (
	"fmt"
	"sync"

	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/par"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// BlockRecord is one raw training instance: a block's features, its
// estimator costs under both orders, its profiled execution count, and
// the list scheduler's work on it.
// For a superblock trace (CollectSuperblockData) the unit is the whole
// trace: CostNS is the cost of scheduling its blocks locally (the "no"
// decision) and CostLS the cost of scheduling it as one superblock (the
// "yes" decision).
type BlockRecord struct {
	Fn     string
	Block  int
	Feat   features.Vector
	CostNS int
	CostLS int
	Execs  int64
	// SchedWork is the list scheduler's work on the block, in the units
	// of sched.Scratch.Work. Collect fills it; the CSV form omits it.
	SchedWork int64
}

// BenchData is everything the evaluation needs about one benchmark.
type BenchData struct {
	Name  string
	Suite workloads.Suite
	// Target names the machine target whose cost model produced the
	// records' estimates (machine.TargetNameFor of the collection model).
	Target  string
	Records []BlockRecord
	// Prog is the compiled (unscheduled) program; protocols clone it.
	Prog *ir.Program
}

// Options bundle the compilation configuration the training pipeline (and
// evaluation) uses for every benchmark.
type Options struct {
	// JIT configures code generation; its zero value is the paper's
	// OptOpt inlining.
	JIT jit.Options
	// Frontend configures Jolt front-end passes (loop unrolling).
	Frontend jolt.Options
}

// DefaultOptions mirror the paper's aggressive OptOpt configuration:
// inlining (callee <= 30, depth <= 6, expansion <= 7x) plus 4-way loop
// unrolling, which gives the block population enough large schedulable
// blocks for the threshold sweep to have paper-like resolution.
func DefaultOptions() Options {
	return Options{Frontend: jolt.Options{UnrollFactor: 4}}
}

// Collect compiles the workload, runs the scheduler experimentally over a
// copy of every block to obtain both cost estimates, and profiles block
// execution counts with one functional run.
func Collect(w *workloads.Workload, m *machine.Model, opts Options) (*BenchData, error) {
	prog, res, err := compileAndProfile(w, opts)
	if err != nil {
		return nil, err
	}
	bd := &BenchData{Name: w.Name, Suite: w.Suite, Target: machine.TargetNameFor(m), Prog: prog}
	s := sched.GetScratch()
	for fi, fn := range prog.Fns {
		for bi, b := range fn.Blocks {
			work := s.Work()
			r := sched.ScheduleInstrsScratch(m, b.Instrs, s)
			bd.Records = append(bd.Records, BlockRecord{
				Fn:        fn.Name,
				Block:     bi,
				Feat:      features.ExtractBlock(b),
				CostNS:    r.CostBefore,
				CostLS:    r.CostAfter,
				Execs:     res.ExecCounts[fi][bi],
				SchedWork: s.Work() - work,
			})
		}
	}
	sched.PutScratch(s)
	return bd, nil
}

// compileAndProfile compiles the workload and profiles its block
// execution and taken-branch counts with one functional run.
func compileAndProfile(w *workloads.Workload, opts Options) (*ir.Program, *sim.Result, error) {
	mod, err := w.CompileWithOptions(opts.Frontend)
	if err != nil {
		return nil, nil, err
	}
	prog, err := jit.Compile(mod, opts.JIT)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res, err := sim.Run(prog, sim.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: profiling run: %w", w.Name, err)
	}
	return prog, res, nil
}

// CollectAllJobs gathers BenchData for a set of workloads, fanning the
// collection across jobs workers (<= 0 selects runtime.GOMAXPROCS(0), 1
// forces the serial path). Each workload compiles and profiles
// independently, so the fan-out shares nothing but the machine model,
// which is read-only; the assembled slice — and any error, which is
// always the lowest-indexed workload's — is identical at every job count.
func CollectAllJobs(ws []workloads.Workload, m *machine.Model, opts Options, jobs int) ([]*BenchData, error) {
	out := make([]*BenchData, len(ws))
	err := par.DoErr(jobs, len(ws), func(i int) error {
		bd, err := Collect(&ws[i], m, opts)
		if err != nil {
			return err
		}
		out[i] = bd
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LabelOf classifies one record at threshold t (percent): +1 for LS, -1
// for NS, 0 for dropped (improvement in (0, t%]).
func LabelOf(r *BlockRecord, t int) int {
	if r.CostLS >= r.CostNS {
		return -1
	}
	// Improvement strictly greater than t percent:
	// costLS < costNS * (1 - t/100)  ⇔  100*costLS < costNS*(100-t).
	if 100*r.CostLS < r.CostNS*(100-t) {
		return +1
	}
	return 0
}

// Label builds a Ripper dataset from records at threshold t.
func Label(recs []BlockRecord, t int) *ripper.Dataset {
	ds := &ripper.Dataset{Names: features.Names[:]}
	for i := range recs {
		switch LabelOf(&recs[i], t) {
		case +1:
			ds.Add(recs[i].Feat.Slice(), true)
		case -1:
			ds.Add(recs[i].Feat.Slice(), false)
		}
	}
	return ds
}

// LabelCounts returns the LS and NS instance counts at threshold t.
func LabelCounts(recs []BlockRecord, t int) (ls, ns int) {
	for i := range recs {
		switch LabelOf(&recs[i], t) {
		case +1:
			ls++
		case -1:
			ns++
		}
	}
	return
}

// LabelCache memoizes labelled per-benchmark datasets by (benchmark,
// threshold), so a leave-one-out sweep over B benchmarks and T thresholds
// labels each benchmark T times instead of B·T times. Cached datasets are
// immutable once built (Induce only reads them, and merging shares rows via
// Dataset.Append rather than copying), so one cache may serve concurrent
// trainers. The zero value is ready to use.
type LabelCache struct {
	mu sync.Mutex
	m  map[labelKey]*ripper.Dataset
}

type labelKey struct {
	bd *BenchData
	t  int
}

// Labelled returns bd's instances labelled at threshold t, building and
// memoizing the dataset on first use. The returned dataset is shared:
// callers must not mutate it. A nil cache labels from scratch.
func (c *LabelCache) Labelled(bd *BenchData, t int) *ripper.Dataset {
	if c == nil {
		return Label(bd.Records, t)
	}
	c.mu.Lock()
	ds, ok := c.m[labelKey{bd, t}]
	c.mu.Unlock()
	if ok {
		return ds
	}
	// Label outside the lock — it is pure, and two racing builders produce
	// identical datasets, so last-write-wins is harmless.
	ds = Label(bd.Records, t)
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[labelKey]*ripper.Dataset)
	}
	if have, ok := c.m[labelKey{bd, t}]; ok {
		ds = have
	} else {
		c.m[labelKey{bd, t}] = ds
	}
	c.mu.Unlock()
	return ds
}

// TrainFilter induces a filter from the union of the given benchmarks'
// instances at threshold t, drawing labelled datasets from c (nil means
// label from scratch). Per-benchmark datasets are merged with one
// pre-sized bulk append per benchmark instead of an instance-at-a-time
// copy of the already-built parts.
func TrainFilter(data []*BenchData, t int, opt ripper.Options, c *LabelCache) *policy.Induced {
	ds := &ripper.Dataset{Names: features.Names[:]}
	for _, bd := range data {
		ds.Append(c.Labelled(bd, t))
	}
	rs := ripper.Induce(ds, opt)
	return policy.NewInducedFor(rs, fmt.Sprintf("L/N t=%d", t), targetOf(data))
}

// targetOf is the common machine target of the training data: the
// benchmarks' shared target name, or "" when the set is empty or mixed
// (a mixed set has no single provenance worth recording).
func targetOf(data []*BenchData) string {
	target := ""
	for i, bd := range data {
		if i == 0 {
			target = bd.Target
		} else if bd.Target != target {
			return ""
		}
	}
	return target
}

// LeaveOneOut trains a filter for the named benchmark using every OTHER
// benchmark's instances, as the paper's cross-validation does, drawing
// labelled datasets from c (nil means label from scratch).
func LeaveOneOut(all []*BenchData, target string, t int, opt ripper.Options, c *LabelCache) *policy.Induced {
	rest := make([]*BenchData, 0, len(all))
	for _, bd := range all {
		if bd.Name != target {
			rest = append(rest, bd)
		}
	}
	f := TrainFilter(rest, t, opt, c)
	f.Label = fmt.Sprintf("L/N t=%d (loo %s)", t, target)
	return f
}

// ErrorRate evaluates a filter's classification error on the target
// benchmark's labelled instances at threshold t (dropped instances are
// excluded, as in the paper's test sets).
func ErrorRate(f policy.Policy, bd *BenchData, t int) float64 {
	total, wrong := 0, 0
	for i := range bd.Records {
		lbl := LabelOf(&bd.Records[i], t)
		if lbl == 0 {
			continue
		}
		total++
		pred := policy.Schedules(f, bd.Records[i].Feat)
		if pred != (lbl == +1) {
			wrong++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}

// PredictedTime computes the paper's simulated running time:
// SIM(P, π) = Σ_b execs(b) · estcost_π(b), with the filter choosing per
// block between the scheduled and unscheduled cost estimate.
func PredictedTime(bd *BenchData, f policy.Policy) int64 {
	var total int64
	for i := range bd.Records {
		r := &bd.Records[i]
		c := r.CostNS
		if policy.Schedules(f, r.Feat) {
			c = r.CostLS
		}
		total += r.Execs * int64(c)
	}
	return total
}

// SchedCost is the deterministic cost of the scheduling phase on the
// benchmark under f, in the scheduler's work units: NS does no work, LS
// pays every block's SchedWork, and any other policy also pays one unit
// per instruction of every block for feature extraction and its
// decision, since the paper charges the filter to the scheduling phase.
// The short-circuits are core.Apply's.
func SchedCost(bd *BenchData, f policy.Policy) int64 {
	if _, never := f.(policy.Never); never {
		return 0
	}
	_, always := f.(policy.Always)
	var total int64
	for i := range bd.Records {
		r := &bd.Records[i]
		if !always {
			total += int64(r.Feat.BBLen())
			if !policy.Schedules(f, r.Feat) {
				continue
			}
		}
		total += r.SchedWork
	}
	return total
}

// Decisions counts how many blocks the filter sends to the scheduler
// (run-time LS classifications) versus not.
func Decisions(bd *BenchData, f policy.Policy) (ls, ns int) {
	for i := range bd.Records {
		if policy.Schedules(f, bd.Records[i].Feat) {
			ls++
		} else {
			ns++
		}
	}
	return
}
