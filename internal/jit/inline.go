package jit

import "schedfilter/internal/bytecode"

// The paper's aggressive OptOpt inlining settings (section 3.1): a
// maximum callee size of 30 bytecode instructions, a maximum inlining
// depth of 6, and an upper bound of 7x on the caller's expansion.
const (
	maxCalleeSize  = 30
	maxInlineDepth = 6
	maxExpansion   = 7
)

// inline performs bytecode-level inlining over the whole module, in place,
// and returns the number of call sites inlined. Each of the maxInlineDepth
// passes inlines eligible direct calls (callee small enough, not the
// caller itself, caller still under its expansion budget), so nested
// inlining deepens by at most one level per pass.
func inline(m *bytecode.Module) int {
	origSize := make(map[*bytecode.Fn]int, len(m.Fns))
	for _, f := range m.Fns {
		origSize[f] = len(f.Code)
	}
	total := 0
	for depth := 0; depth < maxInlineDepth; depth++ {
		did := 0
		for fi, f := range m.Fns {
			did += inlinePass(m, f, fi, origSize[f])
		}
		total += did
		if did == 0 {
			break
		}
	}
	return total
}

// inlinePass inlines eligible call sites in one function and returns how
// many were inlined. Sites are chosen left to right as if each were
// spliced before the next was considered: the expansion budget sees the
// code grow, and the scan resumes after each spliced body, so calls inside
// it belong to the next depth level. The new code is then built in one
// pass, with every original branch target rebased by the growth of the
// splices before it.
func inlinePass(m *bytecode.Module, f *bytecode.Fn, fi int, origSize int) int {
	budget := origSize * maxExpansion
	var sites []int
	size := len(f.Code)
	// shift[pc] is how far original instruction pc moves: the growth of
	// the splices before it. A branch to a call site itself lands on the
	// first instruction of the spliced body.
	shift := make([]int32, len(f.Code))
	for pc, in := range f.Code {
		shift[pc] = int32(size - len(f.Code))
		if in.Op != bytecode.CALL || int(in.A) == fi { // no self-inlining
			continue
		}
		callee := m.Fns[in.A]
		if len(callee.Code) > maxCalleeSize || size+len(callee.Code) > budget {
			continue
		}
		sites = append(sites, pc)
		size += len(callee.Params) + len(callee.Code) - 1
	}
	if len(sites) == 0 {
		return 0
	}

	out := make([]bytecode.Insn, 0, size)
	next := 0
	for pc, in := range f.Code {
		if next < len(sites) && sites[next] == pc {
			out = splice(out, f, m.Fns[in.A])
			next++
			continue
		}
		// A target out of range is left for the post-inline check.
		if in.Op.IsBranch() && in.A >= 0 && int(in.A) < len(shift) {
			in.A += shift[in.A]
		}
		out = append(out, in)
	}
	f.Code = out
	return len(sites)
}

// splice appends, in place of a call, the callee's body to out: argument
// stores into fresh local slots of f, then the remapped body, with returns
// rewritten to jumps past the splice.
func splice(out []bytecode.Insn, f *bytecode.Fn, callee *bytecode.Fn) []bytecode.Insn {
	base := int32(len(f.Locals))
	f.Locals = append(f.Locals, callee.Locals...)

	start := int32(len(out))
	np := len(callee.Params)
	// Arguments are on the stack, last on top: pop them into the
	// callee's parameter slots in reverse.
	for i := np - 1; i >= 0; i-- {
		op := bytecode.ISTORE
		if callee.Params[i] == bytecode.TFloat {
			op = bytecode.FSTORE
		}
		out = append(out, bytecode.Insn{Op: op, A: base + int32(i)})
	}
	// The callee's pc 0 lands after the argument stores; endPC is the
	// first instruction after the splice.
	bodyPC := start + int32(np)
	endPC := bodyPC + int32(len(callee.Code))

	for _, in := range callee.Code {
		switch {
		case in.Op == bytecode.ILOAD, in.Op == bytecode.FLOAD,
			in.Op == bytecode.ISTORE, in.Op == bytecode.FSTORE:
			in.A += base
		case in.Op.IsBranch():
			in.A += bodyPC
		case in.Op == bytecode.RET, in.Op == bytecode.IRET, in.Op == bytecode.FRET:
			// A value-returning callee leaves its result on the stack.
			in = bytecode.Insn{Op: bytecode.GOTO, A: endPC}
		}
		out = append(out, in)
	}
	return out
}
