package training

import (
	"fmt"

	"schedfilter/internal/features"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// The paper (§3.1): "We could apply our same procedure to the superblock
// case, and it might provide additional evidence that we can induce
// heuristics that greatly reduce scheduling effort while preserving most
// of the benefit." This file does exactly that: the decision unit becomes
// a whole superblock trace, the features are the same cheap single-pass
// vector computed over the concatenated trace, and the labels compare the
// estimator's cost of the locally scheduled trace against the
// superblock-scheduled trace.

// TraceRecord is one superblock-level training instance.
type TraceRecord struct {
	Fn string
	// Blocks are the trace's block IDs (post tail-duplication).
	Blocks []int
	// Feat is the Table-1 vector over the concatenated trace.
	Feat features.Vector
	// CostLocal is the estimator makespan summed over the locally
	// list-scheduled blocks; CostSuper is the makespan of the trace
	// scheduled as one superblock.
	CostLocal int
	CostSuper int
	// Execs is the trace head's execution count.
	Execs int64
}

// TraceData is one benchmark's superblock instances.
type TraceData struct {
	Name    string
	Records []TraceRecord
}

// CollectSuperblockData compiles the workload, forms superblock traces
// from a profiling run, and produces one instance per trace.
func CollectSuperblockData(w *workloads.Workload, m *machine.Model, opts Options) (*TraceData, error) {
	mod, err := w.CompileWithOptions(opts.Frontend)
	if err != nil {
		return nil, err
	}
	prog, err := jit.Compile(mod, opts.JIT)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	profRun, err := sim.Run(prog, sim.Config{})
	if err != nil {
		return nil, fmt.Errorf("%s: profiling run: %w", w.Name, err)
	}

	td := &TraceData{Name: w.Name}
	sbOpt := sched.DefaultSuperblockOptions()
	for fi, fn := range prog.Fns {
		prof := make([]sched.BlockProfile, len(fn.Blocks))
		for bi := range prof {
			prof[bi] = sched.BlockProfile{
				Exec:  profRun.ExecCounts[fi][bi],
				Taken: profRun.TakenCounts[fi][bi],
			}
		}
		traces := sched.FormTraces(fn, prof, sbOpt)
		for _, tr := range traces {
			sched.TailDuplicate(fn, tr)
		}
		liveIn, _ := sched.Liveness(fn)
		for _, tr := range traces {
			rec := sched.MeasureTrace(m, fn, tr, liveIn)
			td.Records = append(td.Records, TraceRecord{
				Fn:        fn.Name,
				Blocks:    tr,
				Feat:      rec.Feat,
				CostLocal: rec.CostLocal,
				CostSuper: rec.CostSuper,
				Execs:     prof[tr[0]].Exec,
			})
		}
	}
	return td, nil
}

// TraceLabelOf labels a trace at threshold t: +1 if superblock scheduling
// beats local scheduling by more than t%, -1 if it is no better, 0 if
// dropped.
func TraceLabelOf(r *TraceRecord, t int) int {
	if r.CostSuper >= r.CostLocal {
		return -1
	}
	if 100*r.CostSuper < r.CostLocal*(100-t) {
		return +1
	}
	return 0
}

// LabelTraces builds a Ripper dataset from trace records.
func LabelTraces(recs []TraceRecord, t int) *ripper.Dataset {
	ds := &ripper.Dataset{Names: features.Names[:]}
	for i := range recs {
		switch TraceLabelOf(&recs[i], t) {
		case +1:
			ds.Add(recs[i].Feat.Slice(), true)
		case -1:
			ds.Add(recs[i].Feat.Slice(), false)
		}
	}
	return ds
}

// TrainTraceFilter induces a superblock filter from the union of
// benchmarks' trace instances at threshold t.
func TrainTraceFilter(data []*TraceData, t int, opt ripper.Options) *policy.Induced {
	ds := &ripper.Dataset{Names: features.Names[:]}
	for _, td := range data {
		part := LabelTraces(td.Records, t)
		for i := range part.X {
			ds.Add(part.X[i], part.Y[i])
		}
	}
	rs := ripper.Induce(ds, opt)
	return policy.NewInduced(rs, fmt.Sprintf("SB/L t=%d", t))
}

// TraceLeaveOneOut trains a superblock filter for the named benchmark on
// the other benchmarks' traces.
func TraceLeaveOneOut(all []*TraceData, target string, t int, opt ripper.Options) *policy.Induced {
	var rest []*TraceData
	for _, td := range all {
		if td.Name != target {
			rest = append(rest, td)
		}
	}
	f := TrainTraceFilter(rest, t, opt)
	f.Label = fmt.Sprintf("SB/L t=%d (loo %s)", t, target)
	return f
}

// TraceErrorRate is the classification error of a filter on the target's
// labelled traces at threshold t.
func TraceErrorRate(f policy.Policy, td *TraceData, t int) float64 {
	total, wrong := 0, 0
	for i := range td.Records {
		lbl := TraceLabelOf(&td.Records[i], t)
		if lbl == 0 {
			continue
		}
		total++
		if policy.Schedules(f, td.Records[i].Feat) != (lbl == +1) {
			wrong++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}
