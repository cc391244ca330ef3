package training

import (
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
	"schedfilter/internal/workloads"
)

// The paper (§3.1): "We could apply our same procedure to the superblock
// case, and it might provide additional evidence that we can induce
// heuristics that greatly reduce scheduling effort while preserving most
// of the benefit." CollectSuperblockData does exactly that: the decision
// unit becomes a whole superblock trace, recorded as a BlockRecord so
// the block pipeline's labelling, training and scoring (LabelOf,
// LeaveOneOut, ErrorRate) apply unchanged.

// CollectSuperblockData compiles the workload, forms and tail-duplicates
// superblock traces from a profiling run, and records one instance per
// trace: Block is the trace head, Feat is the Table-1 vector over the
// concatenated trace, CostNS is the estimator cost of the locally
// scheduled trace and CostLS that of the trace scheduled as one
// superblock, and Execs is the head's execution count. Prog is the
// tail-duplicated, unscheduled program the records refer to.
func CollectSuperblockData(w *workloads.Workload, m *machine.Model, opts Options) (*BenchData, error) {
	prog, profRun, err := compileAndProfile(w, opts)
	if err != nil {
		return nil, err
	}
	bd := &BenchData{Name: w.Name, Suite: w.Suite, Target: machine.TargetNameFor(m), Prog: prog}
	for fi, fn := range prog.Fns {
		traces := sched.FormTraces(fn, sched.Profile(profRun.ExecCounts[fi], profRun.TakenCounts[fi]))
		for _, tr := range traces {
			sched.TailDuplicate(fn, tr)
		}
		liveIn, _ := sched.Liveness(fn)
		for _, tr := range traces {
			rec := sched.MeasureTrace(m, fn, tr, liveIn)
			bd.Records = append(bd.Records, BlockRecord{
				Fn:     fn.Name,
				Block:  tr[0],
				Feat:   rec.Feat,
				CostNS: rec.CostLocal,
				CostLS: rec.CostSuper,
				Execs:  profRun.ExecCounts[fi][tr[0]],
			})
		}
	}
	return bd, nil
}
