// Package sched implements dependence analysis over basic blocks and the
// critical-path list scheduler (CPS) of Cavazos & Moss (PLDI 2004),
// following the classical formulation in Muchnick's Advanced Compiler
// Design & Implementation.
package sched

import (
	"sync"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Edge is a scheduling dependence: the successor instruction may not start
// until Latency cycles after the predecessor starts.
type Edge struct {
	To      int
	Latency int
}

// DAG is the dependence graph of one basic block. Node i is the i'th
// instruction of the block in original program order.
type DAG struct {
	N    int
	Succ [][]Edge
	Pred [][]Edge

	nEdges int
}

// addEdge inserts an edge with last-wins max-latency dedupe by scanning
// the successor list. It is the slow general-purpose insert for callers
// mutating a standalone DAG (superblock formation, the reference builder);
// the block builder uses Scratch.edge, whose stamp tables make the same
// dedupe O(1).
func (d *DAG) addEdge(from, to, lat int) {
	if from == to {
		return
	}
	for k := range d.Succ[from] {
		if d.Succ[from][k].To == to {
			if d.Succ[from][k].Latency < lat {
				d.Succ[from][k].Latency = lat
				for i := range d.Pred[to] {
					if d.Pred[to][i].To == from {
						d.Pred[to][i].Latency = lat
						break
					}
				}
			}
			return
		}
	}
	d.Succ[from] = append(d.Succ[from], Edge{To: to, Latency: lat})
	d.Pred[to] = append(d.Pred[to], Edge{To: from, Latency: lat})
	d.nEdges++
}

// NumEdges returns the number of distinct dependence edges.
func (d *DAG) NumEdges() int { return d.nEdges }

// pathMem is the pooled working memory of HasPath.
type pathMem struct {
	seen  []bool
	stack []int
}

var pathPool = sync.Pool{New: func() any { return new(pathMem) }}

// HasPath reports whether a dependence path leads from i to j (i before j).
// Exported for property tests verifying order preservation.
func (d *DAG) HasPath(i, j int) bool {
	if i == j {
		return true
	}
	pm := pathPool.Get().(*pathMem)
	seen := growBools(&pm.seen, d.N)
	stack := append(pm.stack[:0], i)
	found := false
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == j {
			found = true
			break
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range d.Succ[n] {
			if !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	pm.stack = stack[:0]
	pathPool.Put(pm)
	return found
}

// buildDAG computes the dependence DAG of the instruction sequence under
// the model's latencies. The dependence rules follow the paper:
//
//   - two instructions are dependent if they access the same register and
//     at least one writes it (true/anti/output dependences);
//   - memory operations conflict conservatively (store↔load, store↔store);
//   - every instruction is dependent with the block-terminating branch;
//   - hazards "disallow reordering": potentially-excepting instructions
//     stay ordered among themselves, stores may not cross a PEI (exception
//     state must be precise), and no memory operation or PEI may cross a
//     call, allocation, GC/yield/thread-switch point.
//
// Guard registers (defined by null/bounds checks, used by the guarded
// memory access) flow through the ordinary register rules, so a load never
// hoists above its own check while independent loads stay mobile.
//
// The builder emits a reduced edge set: memory and hazard dependences are
// carried by bounded chains (store→store, PEI→PEI, last-store→load,
// loads-since-last-store→store) rather than all-pairs edges, and the
// terminator depends only on the DAG's sinks. Every omitted edge is
// implied by a retained path of at least the omitted latency, so the
// transitive closure, the critical-path lengths, and the resulting
// schedules are identical to BuildDAGReference's full graph (the
// equivalence property tests pin this down per machine target).
func buildDAG(m *machine.Model, instrs []ir.Instr) *DAG {
	d := &DAG{}
	s := GetScratch()
	buildDAGInto(m, instrs, d, s)
	PutScratch(s)
	return d
}

// BuildDAGScratch is buildDAG into the scratch's reusable storage: the
// returned DAG is owned by s and valid only until s's next use, but a
// warmed scratch makes the build allocation-free. This is the build half
// of ScheduleInstrsScratch, exposed for callers (the hot-path benchmark)
// that measure or inspect DAG construction alone.
func BuildDAGScratch(m *machine.Model, instrs []ir.Instr, s *Scratch) *DAG {
	buildDAGInto(m, instrs, &s.dag, s)
	return &s.dag
}

// liveStore is one entry of the builder's pruned store stack: a prior
// store whose store→load edge latency is not yet dominated by the store
// chain. v is the store's latency plus its position in the store chain;
// a store with v no greater than a later store's v is dominated (the
// chain from it to the later store plus that store's latency covers its
// own latency) and gets pruned, so with uniform store latencies the
// stack holds exactly one entry.
type liveStore struct {
	idx, lat, v int32
}

// buildDAGInto is buildDAG writing into caller storage: the DAG's
// adjacency lists and the register/memory bookkeeping all come from the
// scratch, so a warmed-up scratch builds DAGs without allocating. d may be
// the scratch's own embedded DAG (the pooled fast path) or a fresh DAG
// whose storage the caller keeps (buildDAG, superblock formation).
func buildDAGInto(m *machine.Model, instrs []ir.Instr, d *DAG, s *Scratch) {
	n := len(instrs)
	d.reset(n)
	s.begin(n)

	loads := s.loads[:0] // loads since the last store (or barrier)
	live := s.live[:0]   // prior stores still owed direct store→load edges
	lastBarrier, lastStore, lastPEI := -1, -1, -1
	storeChain := 0 // stores since the last barrier

	for i := range instrs {
		in := &instrs[i]

		// Register dependences, off the flat last-writer/last-reader
		// tables.
		for _, u := range in.Uses {
			if e := s.regSlot(u); e.def >= 0 {
				s.edge(d, int(e.def), i, m.Latency(instrs[e.def].Op)) // true
			}
		}
		for _, def := range in.Defs {
			e := s.regSlot(def)
			if e.def >= 0 {
				s.edge(d, int(e.def), i, 1) // output
			}
			if e.use >= 0 {
				for _, ui := range s.useLists[e.use] {
					s.edge(d, ui, i, 0) // anti
				}
			}
		}
		for _, u := range in.Uses {
			e := s.regSlot(u)
			if e.use < 0 {
				e.use = int32(s.newUseSlot())
			}
			s.useLists[e.use] = append(s.useLists[e.use], i)
		}
		for _, def := range in.Defs {
			e := s.regSlot(def)
			e.def = int32(i)
			if e.use >= 0 {
				s.useLists[e.use] = s.useLists[e.use][:0]
			}
		}

		op := in.Op
		isLoad := op.Is(ir.CatLoad)
		isStore := op.Is(ir.CatStore)
		isPEI := op.Is(ir.CatPEI)
		isBarrier := op.IsCallLike() || op.Is(ir.CatGCPoint|ir.CatTSPoint|ir.CatYieldPoint)
		isBranch := op.IsBranchOp()

		// Memory and hazard dependences, carried by chains. anchored
		// records whether this instruction received an edge from inside
		// the current barrier region — if so it is transitively ordered
		// after the barrier with at least the barrier's latency, and the
		// direct barrier edge is redundant.
		anchored := false
		if isLoad {
			for _, st := range live {
				s.edge(d, int(st.idx), i, int(st.lat))
				anchored = true
			}
		}
		if isStore {
			for _, li := range loads {
				s.edge(d, li, i, 0) // anti: load before overwrite
				anchored = true
			}
			if lastStore >= 0 {
				s.edge(d, lastStore, i, 1) // store chain
				anchored = true
			}
			// Precise exception state: a store may not move above a
			// potentially-excepting instruction, nor a PEI above a store.
			if lastPEI >= 0 {
				s.edge(d, lastPEI, i, 0)
				anchored = true
			}
		}
		if isPEI {
			if lastPEI >= 0 {
				s.edge(d, lastPEI, i, 0) // exceptions stay in order
				anchored = true
			}
			if lastStore >= 0 {
				s.edge(d, lastStore, i, 1)
				anchored = true
			}
		}

		// Calls and hazard points: no memory op or PEI crosses them.
		if isBarrier {
			for _, li := range loads {
				s.edge(d, li, i, 0)
			}
			if lastStore >= 0 {
				s.edge(d, lastStore, i, 1)
			}
			if lastPEI >= 0 {
				s.edge(d, lastPEI, i, 0)
			}
			if lastBarrier >= 0 {
				s.edge(d, lastBarrier, i, m.Latency(instrs[lastBarrier].Op))
			}
			lastBarrier = i
			lastStore, lastPEI = -1, -1
			storeChain = 0
			loads, live = loads[:0], live[:0]
		} else if lastBarrier >= 0 && (isLoad || isStore || isPEI) && !anchored {
			s.edge(d, lastBarrier, i, m.Latency(instrs[lastBarrier].Op))
		}

		// The block terminator depends on everything before it; edges to
		// the sinks imply the rest.
		if isBranch && i == n-1 {
			for j := 0; j < i; j++ {
				if len(d.Succ[j]) == 0 {
					s.edge(d, j, i, 0)
				}
			}
		}

		if isLoad {
			loads = append(loads, i)
		}
		if isStore {
			lastStore = i
			storeChain++
			lat := int32(m.Latency(op))
			v := lat + int32(storeChain)
			for len(live) > 0 && live[len(live)-1].v <= v {
				live = live[:len(live)-1]
			}
			live = append(live, liveStore{idx: int32(i), lat: lat, v: v})
			loads = loads[:0] // later anti edges flow through this store
		}
		if isPEI && !isBarrier {
			lastPEI = i
		}
	}
	// Hand the (possibly grown) tracking slices back for the next block.
	s.loads, s.live = loads, live
}

// CriticalPaths returns, for every instruction, the length in cycles of
// the longest (latency-weighted) dependence path from that instruction to
// the end of the block — the CPS tie-breaking priority.
func (d *DAG) CriticalPaths(m *machine.Model, instrs []ir.Instr) []int {
	cp := make([]int, d.N)
	d.criticalPathsInto(m, instrs, cp)
	return cp
}

// criticalPathsInto computes CriticalPaths into caller storage.
func (d *DAG) criticalPathsInto(m *machine.Model, instrs []ir.Instr, cp []int) {
	// Nodes in original order form a topological order (edges only go
	// forward), so a reverse sweep suffices.
	for i := d.N - 1; i >= 0; i-- {
		best := m.Latency(instrs[i].Op)
		for _, e := range d.Succ[i] {
			if v := e.Latency + cp[e.To]; v > best {
				best = v
			}
		}
		cp[i] = best
	}
}
