package bytecode

import "fmt"

// Verify checks the module's structural sanity: branch targets, local and
// global slot indices and types, call signatures, and — via abstract
// interpretation over the control-flow graph — that every instruction sees
// a consistent operand stack regardless of the path taken to reach it, and
// that control cannot fall off the end of a function.
func Verify(m *Module) error {
	_, err := verifyModule(m, false)
	return err
}

// VerifyShapes is Verify (the same checks, the same errors) that also
// returns, from the same abstract interpretation and indexed like m.Fns,
// each function's entry stack shapes: the operand-stack types at the
// entry of every reachable basic block, keyed by leader pc (bools folded
// into ints). The JIT's lowering uses them to give stack cells canonical
// virtual registers at block boundaries.
func VerifyShapes(m *Module) ([]map[int][]Type, error) {
	return verifyModule(m, true)
}

func verifyModule(m *Module, wantShapes bool) ([]map[int][]Type, error) {
	var all []map[int][]Type
	if wantShapes {
		all = make([]map[int][]Type, len(m.Fns))
	}
	for fi, f := range m.Fns {
		shapes, err := verifyFn(m, f, wantShapes)
		if err != nil {
			return nil, fmt.Errorf("bytecode: fn %d (%s): %v", fi, f.Name, err)
		}
		if wantShapes {
			all[fi] = shapes
		}
	}
	if _, err := m.Main(); err != nil {
		return nil, err
	}
	return all, nil
}

// norm folds bool into int: they share a stack cell type.
func norm(t Type) Type {
	if t == TBool {
		return TInt
	}
	return t
}

// cellClass reduces a type to its register class: everything except floats
// lives in integer cells (references are word addresses).
func cellClass(t Type) Type {
	if t == TFloat {
		return TFloat
	}
	return TInt
}

type absState []Type // abstract stack, bottom first

func (s absState) clone() absState { return append(absState(nil), s...) }

func statesEqual(a, b absState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if norm(a[i]) != norm(b[i]) {
			return false
		}
	}
	return true
}

type verifier struct {
	m   *Module
	f   *Fn
	s   absState
	err error
}

func (v *verifier) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf(format, args...)
	}
}

// popClass pops one value of the given register class (TInt accepts bools
// and references; TFloat only floats).
func (v *verifier) popClass(class Type) Type {
	if v.err != nil {
		return TVoid
	}
	if len(v.s) == 0 {
		v.fail("stack underflow (want %s cell)", class)
		return TVoid
	}
	got := v.s[len(v.s)-1]
	if cellClass(got) != class {
		v.fail("stack top is %s, want %s cell", got, class)
		return TVoid
	}
	v.s = v.s[:len(v.s)-1]
	return got
}

// popExact pops one value whose normalized type must equal want.
func (v *verifier) popExact(want Type) {
	if v.err != nil {
		return
	}
	if len(v.s) == 0 {
		v.fail("stack underflow (want %s)", want)
		return
	}
	got := v.s[len(v.s)-1]
	if norm(got) != norm(want) {
		v.fail("stack top is %s, want %s", got, want)
		return
	}
	v.s = v.s[:len(v.s)-1]
}

func (v *verifier) push(t Type) {
	if v.err == nil {
		v.s = append(v.s, norm(t))
	}
}

func (v *verifier) local(a int32, class Type) Type {
	if a < 0 || int(a) >= len(v.f.Locals) {
		v.fail("local %d out of range", a)
		return TVoid
	}
	t := v.f.Locals[a]
	if cellClass(t) != class {
		v.fail("local %d is %s, want %s cell", a, t, class)
	}
	return t
}

func (v *verifier) global(a int32, class Type) Type {
	if a < 0 || int(a) >= len(v.m.Globals) {
		v.fail("global %d out of range", a)
		return TVoid
	}
	t := v.m.Globals[a]
	if cellClass(t) != class {
		v.fail("global %d is %s, want %s cell", a, t, class)
	}
	return t
}

// verifyFn checks one function and, when wantShapes is set, returns the
// entry stack of every reachable block leader.
func verifyFn(m *Module, f *Fn, wantShapes bool) (map[int][]Type, error) {
	if len(f.Params) > len(f.Locals) {
		return nil, fmt.Errorf("params (%d) exceed locals (%d)", len(f.Params), len(f.Locals))
	}
	for i, p := range f.Params {
		if norm(f.Locals[i]) != norm(p) {
			return nil, fmt.Errorf("param %d type %s does not match local slot type %s", i, p, f.Locals[i])
		}
	}
	n := len(f.Code)
	if n == 0 {
		return nil, fmt.Errorf("empty code")
	}

	lead := leaderMarks(f)

	in := make([]absState, n)
	seen := make([]bool, n)
	var work []int

	v := &verifier{m: m, f: f}

	flow := func(pc int, s absState) {
		if v.err != nil {
			return
		}
		if pc < 0 || pc >= n {
			v.fail("branch target %d out of range", pc)
			return
		}
		if !seen[pc] {
			seen[pc] = true
			in[pc] = s.clone()
			work = append(work, pc)
			return
		}
		if !statesEqual(in[pc], s) {
			v.fail("inconsistent stack at pc %d: %v vs %v", pc, in[pc], s)
		}
	}

	flow(0, absState{})
	for len(work) > 0 && v.err == nil {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		v.s = in[pc].clone()
		for v.err == nil {
			if pc >= n {
				return nil, fmt.Errorf("control falls off the end")
			}
			insn := f.Code[pc]
			v.step(insn, flow)
			if v.err != nil {
				return nil, fmt.Errorf("pc %d (%s): %v", pc, insn, v.err)
			}
			if insn.Op.IsTerminator() {
				break
			}
			pc++
			if pc >= n {
				return nil, fmt.Errorf("control falls off the end")
			}
			if lead[pc] {
				flow(pc, v.s)
				break
			}
		}
	}
	if v.err != nil {
		return nil, v.err
	}
	if !wantShapes {
		return nil, nil
	}
	shapes := make(map[int][]Type)
	for pc, isLead := range lead {
		if isLead && seen[pc] {
			shapes[pc] = in[pc]
		}
	}
	return shapes, nil
}

// step applies the type effect of one instruction.
func (v *verifier) step(insn Insn, flow func(int, absState)) {
	switch insn.Op {
	case NOP:
	case ICONST:
		v.push(TInt)
	case FCONST:
		v.push(TFloat)
	case ILOAD:
		t := v.local(insn.A, TInt)
		v.push(t)
	case FLOAD:
		v.local(insn.A, TFloat)
		v.push(TFloat)
	case ISTORE:
		want := v.local(insn.A, TInt)
		if v.err == nil {
			v.popExact(want)
		}
	case FSTORE:
		v.local(insn.A, TFloat)
		v.popClass(TFloat)
	case GILOAD:
		t := v.global(insn.A, TInt)
		v.push(t)
	case GFLOAD:
		v.global(insn.A, TFloat)
		v.push(TFloat)
	case GISTORE:
		want := v.global(insn.A, TInt)
		if v.err == nil {
			v.popExact(want)
		}
	case GFSTORE:
		v.global(insn.A, TFloat)
		v.popClass(TFloat)
	case IADD, ISUB, IMUL, IDIV, IREM, IAND, IOR, IXOR, ISHL, ISHR:
		v.popExact(TInt)
		v.popExact(TInt)
		v.push(TInt)
	case INEG:
		v.popExact(TInt)
		v.push(TInt)
	case FADD, FSUB, FMUL, FDIV:
		v.popClass(TFloat)
		v.popClass(TFloat)
		v.push(TFloat)
	case FNEG:
		v.popClass(TFloat)
		v.push(TFloat)
	case I2F:
		v.popExact(TInt)
		v.push(TFloat)
	case F2I:
		v.popClass(TFloat)
		v.push(TInt)
	case IFICMPLT, IFICMPGT, IFICMPEQ, IFICMPNE, IFICMPLE, IFICMPGE:
		v.popExact(TInt)
		v.popExact(TInt)
		flow(int(insn.A), v.s)
	case IFFCMPLT, IFFCMPGT, IFFCMPEQ, IFFCMPNE, IFFCMPLE, IFFCMPGE:
		v.popClass(TFloat)
		v.popClass(TFloat)
		flow(int(insn.A), v.s)
	case GOTO:
		flow(int(insn.A), v.s)
	case CALL:
		if insn.A < 0 || int(insn.A) >= len(v.m.Fns) {
			v.fail("callee %d out of range", insn.A)
			return
		}
		callee := v.m.Fns[insn.A]
		for i := len(callee.Params) - 1; i >= 0; i-- {
			v.popExact(callee.Params[i])
		}
		if callee.Ret != TVoid {
			v.push(callee.Ret)
		}
	case RET:
		if v.f.Ret != TVoid {
			v.fail("ret in %s-returning function", v.f.Ret)
		}
	case IRET:
		if cellClass(v.f.Ret) != TInt || v.f.Ret == TVoid {
			v.fail("iret in %s-returning function", v.f.Ret)
		} else {
			v.popExact(v.f.Ret)
		}
	case FRET:
		if v.f.Ret != TFloat {
			v.fail("fret in %s-returning function", v.f.Ret)
		} else {
			v.popClass(TFloat)
		}
	case NEWARRI:
		v.popExact(TInt)
		v.push(TIntArr)
	case NEWARRF:
		v.popExact(TInt)
		v.push(TFloatArr)
	case IALOAD:
		v.popExact(TInt)
		v.popExact(TIntArr)
		v.push(TInt)
	case FALOAD:
		v.popExact(TInt)
		v.popExact(TFloatArr)
		v.push(TFloat)
	case IASTORE:
		v.popExact(TInt)
		v.popExact(TInt)
		v.popExact(TIntArr)
	case FASTORE:
		v.popClass(TFloat)
		v.popExact(TInt)
		v.popExact(TFloatArr)
	case ALEN:
		t := v.popClass(TInt)
		if v.err == nil && t != TIntArr && t != TFloatArr {
			v.fail("alen on non-array %s", t)
		}
		v.push(TInt)
	case POP:
		v.popClass(TInt)
	case FPOP:
		v.popClass(TFloat)
	case DUP:
		if len(v.s) == 0 || cellClass(v.s[len(v.s)-1]) != TInt {
			v.fail("dup needs an int-class top")
		} else {
			v.s = append(v.s, v.s[len(v.s)-1])
		}
	case FDUP:
		if len(v.s) == 0 || cellClass(v.s[len(v.s)-1]) != TFloat {
			v.fail("fdup needs a float top")
		} else {
			v.s = append(v.s, v.s[len(v.s)-1])
		}
	case PRINTI:
		v.popExact(TInt)
	case PRINTF:
		v.popClass(TFloat)
	default:
		v.fail("unknown opcode %d", insn.Op)
	}
}

// Leaders returns the sorted basic-block leader PCs of a function — the
// blocks the verifier checks and the JIT's CFG construction splits on.
func Leaders(f *Fn) []int {
	lead := leaderMarks(f)
	out := make([]int, 0, len(f.Code)/4+1)
	for pc, isLead := range lead {
		if isLead {
			out = append(out, pc)
		}
	}
	return out
}

// leaderMarks reports, per pc, whether a basic block starts there: pc 0,
// every in-range branch target, and every instruction after a branch or
// terminator.
func leaderMarks(f *Fn) []bool {
	n := len(f.Code)
	lead := make([]bool, n)
	if n > 0 {
		lead[0] = true
	}
	for pc, in := range f.Code {
		if in.Op.IsBranch() {
			if t := int(in.A); t >= 0 && t < n {
				lead[t] = true
			}
			if pc+1 < n {
				lead[pc+1] = true
			}
		} else if in.Op.IsTerminator() && pc+1 < n {
			lead[pc+1] = true
		}
	}
	return lead
}
