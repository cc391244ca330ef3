package jit

import (
	"cmp"
	"fmt"
	"slices"

	"schedfilter/internal/ir"
)

// Allocatable register pools. ABI registers (r1 SP, r2 globals, r3-r10 and
// f1-f8 argument/return) and the spill scratch band (r29-r31, f29-f31) are
// excluded; the allocator never touches them.
var (
	intPool   = poolRange(ir.ClassInt, 14, 28)
	floatPool = poolRange(ir.ClassFloat, 14, 28)
	condPool  = poolRange(ir.ClassCond, 0, 7)

	intScratch   = []ir.Reg{ir.GPR(29), ir.GPR(30), ir.GPR(31)}
	floatScratch = []ir.Reg{ir.FPR(29), ir.FPR(30), ir.FPR(31)}
)

func poolRange(c ir.RegClass, lo, hi int) []ir.Reg {
	var out []ir.Reg
	for i := lo; i <= hi; i++ {
		out = append(out, ir.Reg{Class: c, N: int32(i)})
	}
	return out
}

// allocClasses are the register classes the allocator assigns, in the
// order it assigns them; allocClasses[c] has pool allocPools[c].
var (
	allocClasses = [...]ir.RegClass{ir.ClassInt, ir.ClassFloat, ir.ClassCond}
	allocPools   = [...][]ir.Reg{intPool, floatPool, condPool}
	physCount    = [...]int32{ir.NumGPR, ir.NumFPR, ir.NumCond}
)

// interval is the conservative live range of one virtual register over the
// linearized function: from its first occurrence to its last, which safely
// covers loop-carried liveness.
type interval struct {
	vreg       ir.Reg
	start, end int
	spilled    bool
	phys       ir.Reg
	slot       int // spill slot when spilled
	// defBlock is 1 + the index of the last block that defined vreg
	// (0: none yet) — what tells an upward-exposed use from a local one.
	defBlock int
}

// regIndex numbers a function's virtual registers densely: per allocated
// class, temps by their number above the physical file and canonical
// stack cells by depth. Each entry is 1 + the register's interval index,
// 0 while it has none.
type regIndex struct {
	temps, cells [len(allocClasses)][]int32
}

// entry returns r's table entry, growing the table to reach it, or nil if
// r is not a virtual register of an allocated class.
func (x *regIndex) entry(r ir.Reg) *int32 {
	c := int(r.Class)
	if c >= len(allocClasses) || r.IsPhys() {
		return nil
	}
	tab, i := &x.temps[c], int(r.N-physCount[c])
	if r.N >= canonBand {
		tab, i = &x.cells[c], int(r.N-canonBand)
	}
	if i >= len(*tab) {
		*tab = append(*tab, make([]int32, i+1-len(*tab))...)
	}
	return &(*tab)[i]
}

// allocate rewrites fn in place, mapping virtual int/float/cond registers
// to physical ones and inserting spill code (frame loads/stores via the
// stack pointer) where the pools do not suffice. Guard registers are left
// virtual: they carry scheduling dependences, not machine state.
func allocate(fn *ir.Fn) error {
	var index regIndex
	var intervals []interval
	// exposed lists (interval, position) pairs where a register is read
	// without a same-block def earlier — the uses that may read a value
	// carried around a loop back edge.
	type use struct{ iv, pos int }
	var exposed []use
	// Back edges are branches to blocks at or before their own position
	// in code order, as positions [head, branch].
	type backEdge struct{ head, branch int }
	var backEdges []backEdge
	blockStart := make([]int, len(fn.Blocks))

	touch := func(r ir.Reg, pos int) (int, error) {
		e := index.entry(r)
		if e == nil {
			return 0, fmt.Errorf("jit: %s: unallocated vreg %s", fn.Name, r)
		}
		if *e == 0 {
			intervals = append(intervals, interval{vreg: r, start: pos})
			*e = int32(len(intervals))
		}
		iv := int(*e) - 1
		intervals[iv].end = pos
		return iv, nil
	}
	pos := 0
	for bi, b := range fn.Blocks {
		blockStart[bi] = pos
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Uses {
				if r.IsPhys() || r.Class == ir.ClassGuard {
					continue
				}
				iv, err := touch(r, pos)
				if err != nil {
					return err
				}
				if intervals[iv].defBlock != bi+1 {
					exposed = append(exposed, use{iv, pos})
				}
			}
			for _, r := range in.Defs {
				if r.IsPhys() || r.Class == ir.ClassGuard {
					continue
				}
				iv, err := touch(r, pos)
				if err != nil {
					return err
				}
				intervals[iv].defBlock = bi + 1
			}
			if (in.Op == ir.B || in.Op == ir.BC) && in.Target <= bi {
				backEdges = append(backEdges, backEdge{head: blockStart[in.Target], branch: pos})
			}
			pos++
		}
	}
	// Loop-carried liveness: a value read by an exposed use inside a
	// loop may have been produced in the previous iteration, so its
	// interval must survive to the furthest back edge whose loop contains
	// the use. Of the back edges with head at or before the use, that is
	// the one with the largest branch position, if that is not before the
	// use. Exposed uses are in position order, so one sweep over the back
	// edges, by head, finds it for all of them.
	slices.SortFunc(backEdges, func(a, b backEdge) int { return cmp.Compare(a.head, b.head) })
	reach, k := -1, 0
	for _, u := range exposed {
		for ; k < len(backEdges) && backEdges[k].head <= u.pos; k++ {
			reach = max(reach, backEdges[k].branch)
		}
		if iv := &intervals[u.iv]; reach >= u.pos && iv.end < reach {
			iv.end = reach
		}
	}

	// Intervals were created in order of first occurrence, so they are
	// sorted by start already; order each run of equal starts by
	// register. The insertion sort only ever moves within such a run.
	for i := 1; i < len(intervals); i++ {
		for j := i; j > 0 && intervals[j].start == intervals[j-1].start &&
			lessReg(intervals[j].vreg, intervals[j-1].vreg); j-- {
			intervals[j], intervals[j-1] = intervals[j-1], intervals[j]
		}
	}
	for i := range intervals {
		*index.entry(intervals[i].vreg) = int32(i + 1)
	}

	nextSlot := 0
	for c, class := range allocClasses {
		if err := allocateClass(intervals, class, allocPools[c], &nextSlot); err != nil {
			return fmt.Errorf("jit: %s: %w", fn.Name, err)
		}
	}
	fn.FrameSlots = nextSlot
	return rewrite(fn, intervals, &index)
}

func lessReg(a, b ir.Reg) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.N < b.N
}

// allocateClass runs linear scan for one register class over the
// intervals, which are sorted by start.
func allocateClass(intervals []interval, class ir.RegClass, pool []ir.Reg, nextSlot *int) error {
	var freeBuf [32]ir.Reg
	free := append(freeBuf[:0], pool...)
	// active holds interval indices sorted by end.
	var activeBuf [32]int
	active := activeBuf[:0]

	for i := range intervals {
		iv := &intervals[i]
		if iv.vreg.Class != class {
			continue
		}
		// Expire the intervals that ended before this one starts.
		keep := active[:0]
		for _, a := range active {
			if intervals[a].end < iv.start {
				free = append(free, intervals[a].phys)
			} else {
				keep = append(keep, a)
			}
		}
		active = keep

		if len(free) > 0 {
			iv.phys = free[len(free)-1]
			free = free[:len(free)-1]
			active = append(active, i)
			sortByEnd(active, intervals)
			continue
		}
		// Spill the interval that ends furthest away.
		victim := &intervals[active[len(active)-1]]
		if victim.end > iv.end {
			iv.phys = victim.phys
			victim.spilled = true
			victim.slot = *nextSlot
			*nextSlot++
			active[len(active)-1] = i
			sortByEnd(active, intervals)
		} else {
			iv.spilled = true
			iv.slot = *nextSlot
			*nextSlot++
		}
		// Condition registers cannot be spilled to memory in this model.
		if class == ir.ClassCond {
			return fmt.Errorf("out of condition registers (cannot spill CR)")
		}
	}
	return nil
}

// sortByEnd restores active's order by interval end after its last element
// was appended or replaced. Which of two equal ends comes last decides the
// spill victim, and the golden digests pin the order sort.Slice leaves.
// slices.SortFunc is the same pattern-defeating quicksort; on a slice that
// is already sorted it moves nothing, and up to 12 elements it is an
// insertion sort, which here moves the last element left past every
// larger end (TestSortByEndMatchesSortSlice).
func sortByEnd(active []int, intervals []interval) {
	n := len(active)
	if n < 2 || intervals[active[n-1]].end >= intervals[active[n-2]].end {
		return
	}
	if n > 12 {
		slices.SortFunc(active, func(a, b int) int { return cmp.Compare(intervals[a].end, intervals[b].end) })
		return
	}
	for j := n - 1; j > 0 && intervals[active[j]].end < intervals[active[j-1]].end; j-- {
		active[j], active[j-1] = active[j-1], active[j]
	}
}

// maxSpillOps bounds the spilled operands of one instruction: each takes
// one of the three int or three float scratch registers.
const maxSpillOps = 6

// rewrite replaces virtual registers with their physical assignments, in
// place, and expands spilled operands into scratch-register loads/stores
// around each instruction. Only a block with spilled operands is copied.
func rewrite(fn *ir.Fn, intervals []interval, index *regIndex) error {
	lookup := func(r ir.Reg) (*interval, error) {
		if r.IsPhys() || r.Class == ir.ClassGuard {
			return nil, nil
		}
		if e := index.entry(r); e != nil && *e != 0 {
			return &intervals[*e-1], nil
		}
		return nil, fmt.Errorf("jit: %s: unallocated vreg %s", fn.Name, r)
	}
	for _, b := range fn.Blocks {
		// Map the registers that got one, counting the spilled operands
		// left: a bound on the reloads and stores the block needs.
		spilled := 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, list := range [2][]ir.Reg{in.Uses, in.Defs} {
				for k, r := range list {
					iv, err := lookup(r)
					if err != nil {
						return err
					}
					if iv == nil {
						continue
					}
					if iv.spilled {
						spilled++
					} else {
						list[k] = iv.phys
					}
				}
			}
		}
		if spilled == 0 {
			continue
		}
		out := make([]ir.Instr, 0, len(b.Instrs)+spilled)
		for _, in := range b.Instrs {
			var err error
			if out, err = appendSpilled(out, fn, in, lookup); err != nil {
				return err
			}
		}
		b.Instrs = out
	}
	return nil
}

// appendSpilled appends in to out, its spilled operands moved to scratch
// registers: a reload before it per spilled use, a store after it per
// spilled def. A register both used and defined by the instruction must
// map consistently: uses are mapped first, and a use that repeats reuses
// its scratch register; each def takes a scratch register of its own.
func appendSpilled(out []ir.Instr, fn *ir.Fn, in ir.Instr, lookup func(ir.Reg) (*interval, error)) ([]ir.Instr, error) {
	var seen [maxSpillOps]struct{ vreg, scratch ir.Reg }
	var post [maxSpillOps]ir.Instr
	nSeen, nPost, nInt, nFloat := 0, 0, 0, 0
	scratch := func(class ir.RegClass) (ir.Reg, error) {
		pool, n := intScratch, &nInt
		if class == ir.ClassFloat {
			pool, n = floatScratch, &nFloat
		}
		if *n == len(pool) {
			return ir.Reg{}, fmt.Errorf("jit: %s: out of %s spill scratch registers", fn.Name, pool[0].Class)
		}
		*n++
		return pool[*n-1], nil
	}
uses:
	for k, r := range in.Uses {
		iv, _ := lookup(r) // only spilled registers are still virtual
		if iv == nil {
			continue
		}
		for _, e := range seen[:nSeen] {
			if e.vreg == r {
				in.Uses[k] = e.scratch
				continue uses
			}
		}
		scr, err := scratch(r.Class)
		if err != nil {
			return nil, err
		}
		op := ir.LD
		if r.Class == ir.ClassFloat {
			op = ir.LFD
		}
		out = append(out, ir.Instr{Op: op, Defs: []ir.Reg{scr}, Uses: []ir.Reg{regSP}, Imm: int64(iv.slot)})
		seen[nSeen].vreg, seen[nSeen].scratch = r, scr
		nSeen++
		in.Uses[k] = scr
	}
	for k, r := range in.Defs {
		iv, _ := lookup(r)
		if iv == nil {
			continue
		}
		scr, err := scratch(r.Class)
		if err != nil {
			return nil, err
		}
		op := ir.ST
		if r.Class == ir.ClassFloat {
			op = ir.STFD
		}
		post[nPost] = ir.Instr{Op: op, Uses: []ir.Reg{scr, regSP}, Imm: int64(iv.slot)}
		nPost++
		in.Defs[k] = scr
	}
	out = append(out, in)
	return append(out, post[:nPost]...), nil
}
