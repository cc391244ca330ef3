// Package jit is the optimizing compiler from bytecode to machine IR: an
// aggressive bytecode-level inliner (with the paper's OptOpt limits),
// control-flow-graph construction, abstract-stack lowering to virtual
// registers, hazard-point insertion (null/bounds checks, yield points at
// loop heads, thread-switch points in prologues), and linear-scan register
// allocation with spilling. Its output is the ir.Program the scheduling
// protocols operate on.
package jit

import (
	"schedfilter/internal/bytecode"
)

// bbRange is one bytecode-level basic block: code[Start:End).
type bbRange struct {
	Start, End int
	// Succs are block indices; for a conditional branch, Succs[0] is
	// the taken target, Succs[1] the fall-through.
	Succs []int
	// LoopHead marks targets of back edges (an edge from a block with a
	// higher start pc, i.e. a retreating edge in code order — loops
	// produced by the Jolt compiler always branch backwards).
	LoopHead bool
}

// buildCFG splits a function into basic blocks. blockAt maps each leader
// pc to its block index (-1 elsewhere).
func buildCFG(f *bytecode.Fn) (blocks []bbRange, blockAt []int) {
	leaders := bytecode.Leaders(f)
	blockAt = make([]int, len(f.Code)+1)
	for i := range blockAt {
		blockAt[i] = -1
	}
	for i, pc := range leaders {
		blockAt[pc] = i
	}
	blocks = make([]bbRange, len(leaders))
	for i, pc := range leaders {
		end := len(f.Code)
		if i+1 < len(leaders) {
			end = leaders[i+1]
		}
		blocks[i] = bbRange{Start: pc, End: end}
	}
	for i := range blocks {
		b := &blocks[i]
		last := f.Code[b.End-1]
		switch {
		case last.Op == bytecode.GOTO:
			b.Succs = []int{blockAt[int(last.A)]}
		case last.Op.IsCondBranch():
			succ := []int{blockAt[int(last.A)]}
			if b.End < len(f.Code) {
				succ = append(succ, blockAt[b.End])
			}
			b.Succs = succ
		case last.Op.IsTerminator():
			// Returns: no successors.
		default:
			// Fall through into the next block.
			if b.End < len(f.Code) {
				b.Succs = []int{blockAt[b.End]}
			}
		}
	}
	for i := range blocks {
		for _, s := range blocks[i].Succs {
			if blocks[s].Start <= blocks[i].Start {
				blocks[s].LoopHead = true
			}
		}
	}
	return blocks, blockAt
}
