package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/core"
	"schedfilter/internal/par"
	"schedfilter/internal/policy"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// The superblock experiment quantifies the paper's deferred extension:
// "We have investigated superblock scheduling in our compiler setting,
// and with it one can get slight (1-2%) additional improvement over local
// scheduling" (§3.1). LS-local and LS-superblock are compared on
// application running time relative to NS.

// SuperblockResult holds per-benchmark app-time ratios.
type SuperblockResult struct {
	Benchmarks []string
	// LocalRel and SuperRel are LS-local and LS-superblock app times
	// relative to NS.
	LocalRel []float64
	SuperRel []float64
	// Traces and Duplicated aggregate formation statistics.
	Traces     int
	Duplicated int
	GeoLocal   float64
	GeoSuper   float64
}

// Superblocks runs the comparison over the given suite.
func (r *Runner) Superblocks(s workloads.Suite) (*SuperblockResult, error) {
	data, err := r.suite(s)
	if err != nil {
		return nil, err
	}
	res := &SuperblockResult{
		LocalRel: make([]float64, len(data)),
		SuperRel: make([]float64, len(data)),
	}
	traces := make([]int, len(data))
	duplicated := make([]int, len(data))
	for _, bd := range data {
		res.Benchmarks = append(res.Benchmarks, bd.Name)
	}
	// Each benchmark profiles, transforms, and times its own program
	// clone; everything is deterministic, so the per-benchmark work fans
	// out and only the slot-ordered aggregation below stays serial.
	err = par.DoErr(r.cfg.Jobs, len(data), func(i int) error {
		bd := data[i]
		ns, err := r.AppTime(bd, policy.Never{})
		if err != nil {
			return err
		}
		ls, err := r.AppTime(bd, policy.Always{})
		if err != nil {
			return err
		}
		super, st, err := r.superblockTime(bd, policy.Always{})
		if err != nil {
			return err
		}
		traces[i] = st.Traces
		duplicated[i] = st.Duplicated
		res.LocalRel[i] = float64(ls) / float64(ns)
		res.SuperRel[i] = float64(super) / float64(ns)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range data {
		res.Traces += traces[i]
		res.Duplicated += duplicated[i]
	}
	res.GeoLocal = geomean(res.LocalRel)
	res.GeoSuper = geomean(res.SuperRel)
	return res, nil
}

// Render formats the comparison.
func (sr *SuperblockResult) Render(title string) string {
	var b strings.Builder
	header(&b, title)
	b.WriteString("Application running time relative to NS (lower is better):\n")
	fmt.Fprintf(&b, "%-14s", "protocol")
	for _, n := range sr.Benchmarks {
		fmt.Fprintf(&b, " %9s", truncate(n, 9))
	}
	fmt.Fprintf(&b, " %9s\n", "geomean")
	fmt.Fprintf(&b, "%-14s", "LS local")
	for _, v := range sr.LocalRel {
		fmt.Fprintf(&b, " %9.4f", v)
	}
	fmt.Fprintf(&b, " %9.4f\n", sr.GeoLocal)
	fmt.Fprintf(&b, "%-14s", "LS superblock")
	for _, v := range sr.SuperRel {
		fmt.Fprintf(&b, " %9.4f", v)
	}
	fmt.Fprintf(&b, " %9.4f\n", sr.GeoSuper)
	fmt.Fprintf(&b, "\n%d traces formed, %d blocks tail-duplicated.\n", sr.Traces, sr.Duplicated)
	return b.String()
}

// SuperblockFilterResult evaluates the paper's suggested follow-on: induce
// a filter deciding, per trace, whether superblock scheduling is worth it.
type SuperblockFilterResult struct {
	Benchmarks []string
	// ErrPct is the leave-one-out classification error per benchmark.
	ErrPct []float64
	// Traces and positive labels aggregate the training population.
	Traces, Positive int
	// LocalRel, SuperRel, FilteredRel are app times vs NS.
	LocalRel, SuperRel, FilteredRel []float64
	GeoLocal, GeoSuper, GeoFiltered float64
}

// SuperblockFilter runs the paper's block procedure over superblock
// traces: the traces become training instances, a leave-one-out filter
// is induced per benchmark, and the filtered superblock pass is timed
// beside the "LS local" and "SB all" rows of Superblocks.
func (r *Runner) SuperblockFilter(s workloads.Suite) (*SuperblockFilterResult, error) {
	sb, err := r.Superblocks(s)
	if err != nil {
		return nil, err
	}
	data, err := r.suite(s)
	if err != nil {
		return nil, err
	}
	// Trace collection compiles and profiles each workload independently —
	// fan it out like CollectAllJobs does for block data.
	traceData := make([]*training.BenchData, len(data))
	err = par.DoErr(r.cfg.Jobs, len(data), func(i int) error {
		td, err := training.CollectSuperblockData(workloads.ByName(data[i].Name), r.cfg.Model, r.cfg.CompileOpts)
		traceData[i] = td
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &SuperblockFilterResult{
		Benchmarks:  sb.Benchmarks,
		ErrPct:      make([]float64, len(data)),
		LocalRel:    sb.LocalRel,
		SuperRel:    sb.SuperRel,
		FilteredRel: make([]float64, len(data)),
		GeoLocal:    sb.GeoLocal,
		GeoSuper:    sb.GeoSuper,
	}
	for _, td := range traceData {
		res.Traces += len(td.Records)
		ls, _ := training.LabelCounts(td.Records, 0)
		res.Positive += ls
	}
	// Per-benchmark evaluation: leave-one-out induction plus one timed
	// simulation, all deterministic, all slot-indexed.
	err = par.DoErr(r.cfg.Jobs, len(data), func(i int) error {
		f := training.LeaveOneOut(traceData, traceData[i].Name, 0, r.cfg.RipperOpts, nil)
		res.ErrPct[i] = 100 * training.ErrorRate(f, traceData[i], 0)
		ns, err := r.AppTime(data[i], policy.Never{})
		if err != nil {
			return err
		}
		filtered, _, err := r.superblockTime(data[i], f)
		if err != nil {
			return err
		}
		res.FilteredRel[i] = float64(filtered) / float64(ns)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GeoFiltered = geomean(res.FilteredRel)
	return res, nil
}

// superblockTime profiles a clone of the benchmark, runs the
// policy-gated superblock pass over it and returns its timed cycles.
// Traces the policy rejects and cold blocks are scheduled locally.
func (r *Runner) superblockTime(bd *training.BenchData, f policy.Policy) (int64, sched.SuperblockStats, error) {
	prog := bd.Prog.Clone()
	profRun, err := sim.Run(prog, sim.Config{})
	if err != nil {
		return 0, sched.SuperblockStats{}, fmt.Errorf("%s: profiling: %w", bd.Name, err)
	}
	st := core.ApplySuperblocks(r.cfg.Model, prog, profRun.ExecCounts, profRun.TakenCounts, f)
	timed, err := sim.Run(prog, sim.Config{Timed: true, Model: r.cfg.Model})
	if err != nil {
		return 0, sched.SuperblockStats{}, fmt.Errorf("%s: timed superblock run: %w", bd.Name, err)
	}
	return timed.Cycles, st, nil
}

// Render formats the superblock-filter experiment.
func (sr *SuperblockFilterResult) Render(title string) string {
	var b strings.Builder
	header(&b, title)
	fmt.Fprintf(&b, "Trace population: %d traces, %d labelled beneficial at t=0.\n\n", sr.Traces, sr.Positive)
	fmt.Fprintf(&b, "%-14s", "")
	for _, n := range sr.Benchmarks {
		fmt.Fprintf(&b, " %9s", truncate(n, 9))
	}
	fmt.Fprintf(&b, " %9s\n", "geomean")
	row := func(name string, vals []float64, geo float64, format string) {
		fmt.Fprintf(&b, "%-14s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, " "+format, v)
		}
		fmt.Fprintf(&b, " "+format+"\n", geo)
	}
	row("err%", sr.ErrPct, geomean(sr.ErrPct), "%9.2f")
	row("LS local", sr.LocalRel, sr.GeoLocal, "%9.4f")
	row("SB all", sr.SuperRel, sr.GeoSuper, "%9.4f")
	row("SB filtered", sr.FilteredRel, sr.GeoFiltered, "%9.4f")
	return b.String()
}
