package sched

import (
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// This file preserves the original DAG builder and scheduling loop as a
// reference implementation. The production path (buildDAGInto +
// scheduleDAG) emits a reduced edge set and runs on indexed scratch
// storage; the reference emits the full conservative edge set with
// map-based bookkeeping and a linear ready-list scan, exactly as the
// pre-optimization code did. It exists as the test oracle for the
// bit-identical-schedules invariant and as the "before" side of the
// hot-path benchmark (BENCH_hotpath.json); production callers should
// never use it.

// BuildDAGReference is the original dependence-DAG builder: every
// memory/hazard pair gets an explicit edge (loads from every prior store,
// stores from every prior store, load, and PEI, the terminator from every
// instruction), deduplicated through a map keeping the maximum latency per
// pair. The produced DAG has the same transitive closure — and dominates
// the same critical-path lengths — as buildDAG's reduced graph.
func BuildDAGReference(m *machine.Model, instrs []ir.Instr) *DAG {
	n := len(instrs)
	d := &DAG{N: n, Succ: make([][]Edge, n), Pred: make([][]Edge, n)}
	edgeSet := make(map[int64]int)
	addEdge := func(from, to, lat int) {
		if from == to {
			return
		}
		key := int64(from)<<32 | int64(to)
		if idx, ok := edgeSet[key]; ok {
			if d.Succ[from][idx].Latency < lat {
				d.Succ[from][idx].Latency = lat
				for i := range d.Pred[to] {
					if d.Pred[to][i].To == from {
						d.Pred[to][i].Latency = lat
						break
					}
				}
			}
			return
		}
		edgeSet[key] = len(d.Succ[from])
		d.Succ[from] = append(d.Succ[from], Edge{To: to, Latency: lat})
		d.Pred[to] = append(d.Pred[to], Edge{To: from, Latency: lat})
		d.nEdges++
	}

	lastDef := make(map[ir.Reg]int)
	lastUse := make(map[ir.Reg]int) // register -> slot in useLists
	var useLists [][]int
	var loads, stores, peis []int
	lastBarrier := -1

	for i := range instrs {
		in := &instrs[i]

		// Register dependences.
		for _, u := range in.Uses {
			if di, ok := lastDef[u]; ok {
				addEdge(di, i, m.Latency(instrs[di].Op)) // true
			}
		}
		for _, def := range in.Defs {
			if di, ok := lastDef[def]; ok {
				addEdge(di, i, 1) // output
			}
			if si, ok := lastUse[def]; ok {
				for _, ui := range useLists[si] {
					addEdge(ui, i, 0) // anti
				}
			}
		}
		for _, u := range in.Uses {
			si, ok := lastUse[u]
			if !ok {
				si = len(useLists)
				useLists = append(useLists, nil)
				lastUse[u] = si
			}
			useLists[si] = append(useLists[si], i)
		}
		for _, def := range in.Defs {
			lastDef[def] = i
			if si, ok := lastUse[def]; ok {
				useLists[si] = useLists[si][:0]
			}
		}

		op := in.Op
		isLoad := op.Is(ir.CatLoad)
		isStore := op.Is(ir.CatStore)
		isPEI := op.Is(ir.CatPEI)
		isBarrier := op.IsCallLike() || op.Is(ir.CatGCPoint|ir.CatTSPoint|ir.CatYieldPoint)
		isBranch := op.IsBranchOp()

		// Memory dependences: every conflicting pair, explicitly.
		if isLoad {
			for _, si := range stores {
				addEdge(si, i, m.Latency(instrs[si].Op))
			}
		}
		if isStore {
			for _, si := range stores {
				addEdge(si, i, 1)
			}
			for _, li := range loads {
				addEdge(li, i, 0)
			}
			for _, pi := range peis {
				addEdge(pi, i, 0)
			}
		}
		if isPEI {
			for _, pi := range peis {
				addEdge(pi, i, 0)
			}
			for _, si := range stores {
				addEdge(si, i, 1)
			}
		}

		if isBarrier {
			for _, x := range loads {
				addEdge(x, i, 0)
			}
			for _, x := range stores {
				addEdge(x, i, 1)
			}
			for _, x := range peis {
				addEdge(x, i, 0)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i, m.Latency(instrs[lastBarrier].Op))
			}
			lastBarrier = i
			loads, stores, peis = loads[:0], stores[:0], peis[:0]
		} else if lastBarrier >= 0 && (isLoad || isStore || isPEI) {
			addEdge(lastBarrier, i, m.Latency(instrs[lastBarrier].Op))
		}

		// The block terminator depends on everything before it.
		if isBranch && i == n-1 {
			for j := 0; j < i; j++ {
				addEdge(j, i, 0)
			}
		}

		if isLoad {
			loads = append(loads, i)
		}
		if isStore {
			stores = append(stores, i)
		}
		if isPEI && !isBarrier {
			peis = append(peis, i)
		}
	}
	return d
}

// ScheduleInstrsReference is the original scheduling path: the full-edge
// reference DAG plus a linear scan over an unordered ready list with lazy
// earliest-start revalidation, all on freshly allocated memory. The
// production path must produce bit-identical Results.
func ScheduleInstrsReference(m *machine.Model, instrs []ir.Instr) Result {
	n := len(instrs)
	res := Result{}
	if n == 0 {
		return res
	}
	res.Order = make([]int, 0, n)
	dag := BuildDAGReference(m, instrs)
	cp := dag.CriticalPaths(m, instrs)

	state := machine.NewIssueState(m)
	for i := range instrs {
		state.Issue(&instrs[i])
	}
	res.CostBefore = state.Makespan()
	state.Reset()

	indeg := make([]int, n)
	es := make([]int, n)
	inReady := make([]bool, n)
	var ready []int
	for i := 0; i < n; i++ {
		indeg[i] = len(dag.Pred[i])
		if indeg[i] == 0 {
			ready = append(ready, i)
			inReady[i] = true
			es[i] = state.EarliestStart(&instrs[i])
		}
	}

	for len(res.Order) < n {
		var best int
		for {
			best = -1
			bestStart, bestCP := 0, 0
			for _, i := range ready {
				e := es[i]
				switch {
				case best == -1,
					e < bestStart,
					e == bestStart && cp[i] > bestCP,
					e == bestStart && cp[i] == bestCP && i < best:
					best, bestStart, bestCP = i, e, cp[i]
				}
			}
			fresh := state.EarliestStart(&instrs[best])
			if fresh == es[best] {
				break
			}
			es[best] = fresh // stale lower bound; raise and re-pick
		}
		state.Issue(&instrs[best])
		res.Order = append(res.Order, best)
		for k, i := range ready {
			if i == best {
				ready[k] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				break
			}
		}
		for _, e := range dag.Succ[best] {
			indeg[e.To]--
			if indeg[e.To] == 0 && !inReady[e.To] {
				ready = append(ready, e.To)
				inReady[e.To] = true
				es[e.To] = state.EarliestStart(&instrs[e.To])
			}
		}
	}

	res.CostAfter = state.Makespan()
	for pos, idx := range res.Order {
		if pos != idx {
			res.Changed = true
			break
		}
	}
	return res
}
