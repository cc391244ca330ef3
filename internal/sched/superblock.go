package sched

import (
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Superblock scheduling — the extension the paper defers ("we have
// investigated superblock scheduling in our compiler setting, and with it
// one can get slight (1-2%) additional improvement over local
// scheduling"). A superblock is a single-entry multiple-exit trace of hot
// blocks: profile-guided trace formation picks the likely path, tail
// duplication removes side entrances, and scheduling may then move pure
// register computation across the internal (exit) branches under liveness
// constraints.

// BlockProfile carries the edge profile of one block: how often it
// executed and how often its terminating conditional branch was taken.
type BlockProfile struct {
	Exec  int64
	Taken int64
}

// Profile pairs one function's per-block execution and taken-branch
// counts, as a functional simulator run reports them, into the edge
// profile trace formation reads.
func Profile(exec, taken []int64) []BlockProfile {
	prof := make([]BlockProfile, len(exec))
	for i := range prof {
		prof[i] = BlockProfile{Exec: exec[i], Taken: taken[i]}
	}
	return prof
}

// Trace formation follows the classical settings: seed at any block that
// executed, extend along edges taken at least 70% of the time, and stop
// at 8 blocks.
const (
	traceMinExec   = 1
	traceBias      = 0.7
	traceMaxBlocks = 8
)

// succEdges returns the block's successor edges with their profiled
// frequencies.
func succEdges(b *ir.Block, p BlockProfile) []struct {
	To   int
	Freq int64
} {
	type edge = struct {
		To   int
		Freq int64
	}
	if len(b.Instrs) == 0 {
		return nil
	}
	switch b.Instrs[len(b.Instrs)-1].Op {
	case ir.BC:
		fall := p.Exec - p.Taken
		if len(b.Succs) < 2 {
			return nil
		}
		return []edge{{b.Succs[0], p.Taken}, {b.Succs[1], fall}}
	case ir.B:
		if len(b.Succs) < 1 {
			return nil
		}
		return []edge{{b.Succs[0], p.Exec}}
	}
	return nil
}

// FormTraces grows hot traces greedily: seed at the hottest unvisited
// block, extend along the most frequent edge while the edge is both
// likely (>= traceBias of the source's executions) and dominant for its
// target (>= half the target's entries), never revisiting a block. Only
// traces of two or more blocks are returned.
func FormTraces(fn *ir.Fn, prof []BlockProfile) [][]int {
	n := len(fn.Blocks)
	if len(prof) != n {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Hottest first (stable by id for determinism).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && prof[order[j]].Exec > prof[order[j-1]].Exec; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	visited := make([]bool, n)
	var traces [][]int
	for _, seed := range order {
		if visited[seed] || prof[seed].Exec < traceMinExec {
			continue
		}
		trace := []int{seed}
		visited[seed] = true
		cur := seed
		for len(trace) < traceMaxBlocks {
			var best, bestFreq = -1, int64(0)
			for _, e := range succEdges(fn.Blocks[cur], prof[cur]) {
				if e.Freq > bestFreq {
					best, bestFreq = e.To, e.Freq
				}
			}
			if best < 0 || visited[best] || bestFreq <= 0 {
				break
			}
			if float64(bestFreq) < traceBias*float64(prof[cur].Exec) {
				break
			}
			if prof[best].Exec > 0 && float64(bestFreq) < 0.5*float64(prof[best].Exec) {
				break // the target is mostly entered from elsewhere
			}
			trace = append(trace, best)
			visited[best] = true
			cur = best
		}
		if len(trace) >= 2 {
			traces = append(traces, trace)
		}
	}
	return traces
}

// predecessors returns, for every block, the IDs of blocks with an edge
// to it (duplicates preserved: a BC with both edges to one block appears
// twice).
func predecessors(fn *ir.Fn) [][]int {
	preds := make([][]int, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], bi)
		}
	}
	return preds
}

// retarget rewrites every edge of block p that points to old so it points
// to new, keeping branch Target fields consistent with Succs.
func retarget(b *ir.Block, old, new int) {
	for i, s := range b.Succs {
		if s == old {
			b.Succs[i] = new
		}
	}
	if n := len(b.Instrs); n > 0 {
		t := &b.Instrs[n-1]
		if (t.Op == ir.B || t.Op == ir.BC) && t.Target == old {
			t.Target = new
		}
	}
}

// TailDuplicate removes side entrances from the trace: from the first
// interior block with an off-trace predecessor onward, the remaining
// trace is copied, side predecessors are retargeted into the copies, and
// the copies chain to each other (keeping their original exits). Returns
// the number of blocks duplicated. Block IDs remain dense: copies are
// appended to fn.Blocks.
func TailDuplicate(fn *ir.Fn, trace []int) int {
	preds := predecessors(fn)
	// First interior block with a side entrance.
	first := -1
	sideAt := make([][]int, len(trace))
	for k := 1; k < len(trace); k++ {
		for _, p := range preds[trace[k]] {
			if p != trace[k-1] {
				sideAt[k] = append(sideAt[k], p)
			}
		}
		if first < 0 && len(sideAt[k]) > 0 {
			first = k
		}
	}
	if first < 0 {
		return 0
	}

	// Copy trace[first..] as a parallel cold chain.
	copyID := make(map[int]int) // trace index -> copy block id
	for k := first; k < len(trace); k++ {
		c := fn.Blocks[trace[k]].Clone()
		c.ID = len(fn.Blocks)
		c.LoopHead = false
		fn.Blocks = append(fn.Blocks, c)
		copyID[k] = c.ID
	}
	// Rewire every copy edge that points into the duplicated region:
	// this both chains the copies to each other (the in-trace edges) and
	// redirects any copy exit that re-enters the trace interior (a
	// backedge-shaped exit). Edges into the trace head stay: superblock
	// entries are legal there.
	for k := first; k < len(trace); k++ {
		for j := first; j < len(trace); j++ {
			retarget(fn.Blocks[copyID[k]], trace[j], copyID[j])
		}
	}
	// Retarget every side predecessor into the copy chain.
	for k := first; k < len(trace); k++ {
		for _, p := range sideAt[k] {
			retarget(fn.Blocks[p], trace[k], copyID[k])
		}
	}
	return len(trace) - first
}

// isTerminator reports whether the opcode ends a basic block (BL is a
// branch-category instruction but returns to the next instruction, so it
// does not terminate a block).
func isTerminator(op ir.Op) bool {
	return op == ir.B || op == ir.BC || op == ir.BLR
}

// isPinned reports whether an instruction may never cross an internal
// branch: anything with memory or exception side effects, runtime
// services, and branches themselves. Loads are pinned both ways to keep
// exceptions precise (a hoisted load could trap on a path that never
// executed it; a sunk load could skip a trap the original program
// raised).
func isPinned(op ir.Op) bool {
	return op.IsBranchOp() || op.IsMemOp() || op.IsHazard() || op == ir.NOP
}

// buildSuperblockDAG concatenates the trace and extends the local
// dependence DAG over it with control constraints for the internal
// branches: pinned instructions never cross a branch, and pure
// computation may cross only if its results are dead on that branch's
// off-trace path. It returns the concatenation, the DAG and the internal
// branches' positions in the concatenation.
func buildSuperblockDAG(m *machine.Model, fn *ir.Fn, trace []int, liveIn []RegSet) ([]ir.Instr, *DAG, []int) {
	instrs := concatTrace(fn, trace)
	d := buildDAG(m, instrs)
	branchPos := make([]int, 0, len(trace)-1)
	end := 0
	for k, bi := range trace[:len(trace)-1] {
		b := fn.Blocks[bi]
		end += len(b.Instrs)
		p := end - 1
		// Branches stay in order.
		if k > 0 {
			d.addEdge(branchPos[k-1], p, 0)
		}
		branchPos = append(branchPos, p)

		// The registers live on this branch's off-trace exit.
		var live RegSet
		for _, s := range b.Succs {
			if s != trace[k+1] {
				live.Union(liveIn[s])
			}
		}
		defsLive := func(i int) bool {
			for _, def := range instrs[i].Defs {
				if live.Has(def) {
					return true
				}
			}
			return false
		}
		// Sinking below the branch: unsafe for pinned instructions and
		// for values the exit path reads. The full prefix is checked:
		// an instruction safe for an earlier branch's exit may still be
		// unsafe for this one.
		for i := 0; i < p; i++ {
			if isPinned(instrs[i].Op) || defsLive(i) {
				d.addEdge(i, p, 0)
			}
		}
		// Hoisting above the branch: unsafe for pinned instructions and
		// for defs that would clobber the exit path's values; again over
		// the full suffix.
		for i := p + 1; i < len(instrs); i++ {
			if isPinned(instrs[i].Op) || defsLive(i) {
				d.addEdge(p, i, 0)
			}
		}
	}
	return instrs, d, branchPos
}

// SuperblockStats reports what superblock scheduling did to one function.
type SuperblockStats struct {
	Traces     int
	Duplicated int
	// TraceBlocks counts blocks scheduled as part of a superblock;
	// LocalBlocks counts the rest (scheduled locally).
	TraceBlocks int
	LocalBlocks int
}

// ScheduleSuperblocks forms superblocks from the profile, schedules each
// trace as one unit (pure computation may migrate across internal
// branches), and list-schedules every remaining block locally. The
// function is modified in place; prof must align with fn.Blocks before
// the call (tail duplication appends blocks).
//
// decide is an optional per-trace filter: it receives the concatenated
// trace's feature vector and reports whether the trace is worth
// scheduling as a superblock; rejected traces fall back to local list
// scheduling of their blocks (tail duplication has already happened —
// formation is needed to compute the features, exactly as block
// filtering still pays for feature extraction). A nil decide accepts
// every trace.
func ScheduleSuperblocks(m *machine.Model, fn *ir.Fn, prof []BlockProfile, decide func(features.Vector) bool) SuperblockStats {
	var st SuperblockStats
	traces := FormTraces(fn, prof)
	st.Traces = len(traces)

	inTrace := map[int]bool{}
	for _, tr := range traces {
		st.Duplicated += TailDuplicate(fn, tr)
		for _, b := range tr {
			inTrace[b] = true
		}
	}
	// Liveness after duplication (the copies are reachable code).
	liveIn, _ := Liveness(fn)
	s := GetScratch()
	defer PutScratch(s)

	for _, tr := range traces {
		if decide != nil {
			if !decide(features.Extract(concatTrace(fn, tr))) {
				for _, bi := range tr {
					ScheduleBlock(m, fn.Blocks[bi], nil, s)
				}
				st.LocalBlocks += len(tr)
				continue
			}
		}
		scheduleTrace(m, fn, tr, liveIn, s)
		st.TraceBlocks += len(tr)
	}
	for bi, b := range fn.Blocks {
		if !inTrace[bi] {
			ScheduleBlock(m, b, nil, s)
			st.LocalBlocks++
		}
	}
	return st
}

// concatTrace is the trace's instructions in trace order.
func concatTrace(fn *ir.Fn, trace []int) []ir.Instr {
	var instrs []ir.Instr
	for _, bi := range trace {
		instrs = append(instrs, fn.Blocks[bi].Instrs...)
	}
	return instrs
}

// scheduleTrace schedules one superblock: build the relaxed DAG over the
// concatenation, run CPS, and re-split at the (order-preserved) branches.
func scheduleTrace(m *machine.Model, fn *ir.Fn, trace []int, liveIn []RegSet, s *Scratch) {
	instrs, dag, branchPos := buildSuperblockDAG(m, fn, trace, liveIn)
	res := scheduleDAG(m, instrs, dag, s)
	scheduled := res.Apply(instrs)

	// Re-split: each segment ends at its branch; branch order was
	// preserved by the chain edges, so segment k belongs to trace[k].
	seg := 0
	start := 0
	for i := range scheduled {
		if seg < len(branchPos) && isTerminator(scheduled[i].Op) {
			fn.Blocks[trace[seg]].Instrs = append([]ir.Instr(nil), scheduled[start:i+1]...)
			seg++
			start = i + 1
		}
	}
	fn.Blocks[trace[seg]].Instrs = append([]ir.Instr(nil), scheduled[start:]...)
}

// TraceMeasurement is the raw material for superblock-level training
// instances: the trace's cheap features and its estimator cost under
// local scheduling vs superblock scheduling, both measured as the
// makespan of the concatenated instruction stream so the comparison
// isolates the ordering benefit.
type TraceMeasurement struct {
	Feat      features.Vector
	CostLocal int
	CostSuper int
}

// MeasureTrace evaluates one trace without modifying the function.
func MeasureTrace(m *machine.Model, fn *ir.Fn, trace []int, liveIn []RegSet) TraceMeasurement {
	s := GetScratch()
	defer PutScratch(s)
	var local []ir.Instr
	for _, bi := range trace {
		b := fn.Blocks[bi]
		res := ScheduleInstrsScratch(m, b.Instrs, s)
		local = append(local, res.Apply(b.Instrs)...)
	}
	concat, dag, _ := buildSuperblockDAG(m, fn, trace, liveIn)
	super := scheduleDAG(m, concat, dag, s)
	return TraceMeasurement{
		Feat:      features.Extract(concat),
		CostLocal: machine.EstimateCost(m, local),
		CostSuper: super.CostAfter,
	}
}
