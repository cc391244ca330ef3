package sched

import (
	"time"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Result reports what the list scheduler did to one block.
type Result struct {
	// Order maps output position to original instruction index. It is
	// nil for a block ScheduleBlock replayed from the cache.
	Order []int
	// CostBefore and CostAfter are the estimator's block makespans for
	// the original and the scheduled order.
	CostBefore int
	CostAfter  int
	// Changed reports whether the instruction order actually changed.
	Changed bool
}

// ScheduleInstrsScratch runs critical-path list scheduling over one
// instruction sequence and returns the new order plus cost accounting.
//
// The algorithm is the paper's CPS: start from an empty schedule and
// repeatedly append a ready instruction (one whose dependence predecessors
// are all scheduled). Among ready instructions, choose the one that can
// start soonest under the machine model; break ties by the longest
// latency-weighted critical path to the end of the block, then by original
// program order (for determinism).
//
// Working memory is the caller's: the dependence DAG is built into the
// scratch's reusable storage and the scheduling loop runs on its arrays
// and issue state, so a warmed scratch allocates only the returned order.
// Take one from GetScratch (or NewScratch for fresh memory) and reuse it
// across the blocks of a pass.
//
// When the scratch's timing mode is on (StartTiming), the DAG build and
// the scheduling loop are timed into the scratch's phase accumulator;
// the untimed path is a single boolean check away from the original.
// Either way the scheduling work is counted into the scratch (Work).
func ScheduleInstrsScratch(m *machine.Model, instrs []ir.Instr, s *Scratch) Result {
	if len(instrs) == 0 {
		return Result{}
	}
	if !s.timing {
		buildDAGInto(m, instrs, &s.dag, s)
		return scheduleDAG(m, instrs, &s.dag, s)
	}
	t0 := time.Now()
	buildDAGInto(m, instrs, &s.dag, s)
	s.phases.DAGBuildNs += time.Since(t0).Nanoseconds()
	estBefore := s.phases.EstimatorNs
	t1 := time.Now()
	res := scheduleDAG(m, instrs, &s.dag, s)
	elapsed := time.Since(t1).Nanoseconds()
	// scheduleDAG accrued its estimator sub-pass separately; the
	// remainder is the list-scheduling loop proper.
	if ls := elapsed - (s.phases.EstimatorNs - estBefore); ls > 0 {
		s.phases.ListSchedNs += ls
	}
	return res
}

// scheduleDAG is the scheduling core: CPS over a dependence DAG, which
// superblock scheduling supplies itself to relax the block-terminal rules
// for internal branches. All working memory beyond the returned order
// comes from the scratch.
//
// The ready-choice rule needs, every step, the earliest start cycle of
// every ready instruction. Those values are monotone: an instruction's
// operand-ready time is fixed the moment it becomes ready (all dependence
// predecessors are scheduled), and the machine constraints — issue cycle,
// slot consumption, unit busy times — only tighten as instructions issue.
// The ready set is therefore kept as a bucket queue indexed by cached
// earliest-start lower bound (computed when the instruction enters the
// ready set): the lowest non-empty bucket holds exactly the candidates
// that win the earliest-start comparison on cached values, so one scan of
// that bucket finds the critical-path/program-order winner without
// touching later candidates. The winner's true earliest start is then
// recomputed; if the cache was stale the entry migrates to its true
// bucket and the pick repeats. The chosen instruction is provably the
// same one a full recomputation over an unordered ready list would pick —
// stale entries are lower bounds, so a candidate that loses on cached
// values also loses on true values, and issue cycles never decrease, so
// the scan frontier never moves backward — keeping schedules bit-identical
// to ScheduleInstrsReference.
//
// The call adds its work, in the units Scratch.Work documents, to the
// scratch's count.
func scheduleDAG(m *machine.Model, instrs []ir.Instr, dag *DAG, s *Scratch) Result {
	n := len(instrs)
	res := Result{Order: make([]int, 0, n)}
	if n == 0 {
		return res
	}
	work := 4*n + 2*dag.nEdges
	cp := growInts(&s.cp, n)
	dag.criticalPathsInto(m, instrs, cp)

	// The estimator cost of the original order, from the reused state.
	var estStart time.Time
	if s.timing {
		estStart = time.Now()
	}
	state := s.stateFor(m)
	for i := range instrs {
		state.Issue(&instrs[i])
	}
	res.CostBefore = state.Makespan()
	state.Reset()
	if s.timing {
		s.phases.EstimatorNs += time.Since(estStart).Nanoseconds()
	}

	indeg := growInts(&s.indeg, n)
	inReady := growBools(&s.inReady, n)
	nb := s.buckets
	push := func(i, t int) {
		for len(nb) <= t {
			nb = append(nb, nil)
		}
		nb[t] = append(nb[t], int32(i))
	}
	for i := 0; i < n; i++ {
		indeg[i] = len(dag.Pred[i])
		if indeg[i] == 0 {
			inReady[i] = true
			push(i, state.EarliestStart(&instrs[i]))
		}
	}

	lo := 0 // all buckets below lo are empty and stay empty
	for len(res.Order) < n {
		var best int
		for {
			for len(nb[lo]) == 0 {
				lo++
			}
			b := nb[lo]
			work += len(b)
			best = int(b[0])
			bi := 0
			for k := 1; k < len(b); k++ {
				c := int(b[k])
				if cp[c] > cp[best] || (cp[c] == cp[best] && c < best) {
					best, bi = c, k
				}
			}
			fresh := state.EarliestStart(&instrs[best])
			b[bi] = b[len(b)-1]
			nb[lo] = b[:len(b)-1]
			if fresh == lo {
				break
			}
			push(best, fresh) // stale lower bound; migrate and re-pick
			work++
		}
		state.Issue(&instrs[best])
		res.Order = append(res.Order, best)
		for _, e := range dag.Succ[best] {
			indeg[e.To]--
			if indeg[e.To] == 0 && !inReady[e.To] {
				inReady[e.To] = true
				push(e.To, state.EarliestStart(&instrs[e.To]))
			}
		}
	}
	s.buckets = nb
	s.work += int64(work)

	res.CostAfter = state.Makespan()
	for pos, idx := range res.Order {
		if pos != idx {
			res.Changed = true
			break
		}
	}
	return res
}

// Apply returns the instruction sequence reordered per the result.
func (r Result) Apply(instrs []ir.Instr) []ir.Instr {
	out := make([]ir.Instr, len(r.Order))
	for pos, idx := range r.Order {
		out[pos] = instrs[idx]
	}
	return out
}
