package jit

import (
	"fmt"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
)

// Reserved physical registers (the lowering ABI):
//
//	r1  — stack pointer (spill frames; adjusted by the call protocol)
//	r2  — global area base (set once at program start)
//	r3… — integer argument/return registers (ArgInt)
//	f1… — float argument/return registers (ArgFloat)
//
// The runtime's call protocol ("magic ABI", documented in internal/sim)
// saves and restores all registers across a call except the return-value
// registers, so the allocator may keep values live across calls.
var (
	regSP      = ir.GPR(1)
	regGlobals = ir.GPR(2)
)

// maxArgs is the maximum number of same-class arguments passed in
// registers; the Jolt workloads stay within it.
const maxArgs = 8

// lowerer lowers one bytecode function to machine IR.
type lowerer struct {
	m   *bytecode.Module
	f   *bytecode.Fn
	out *ir.Fn

	nextInt   int32 // next virtual int register
	nextFloat int32
	nextCond  int32
	nextGuard int32

	// localReg maps a bytecode local slot to its dedicated vreg.
	localReg []ir.Reg

	// stack is the symbolic operand stack of the block being lowered.
	stack []stackVal

	// blockAt maps a leader pc to its block index.
	blockAt []int

	// regBuf backs the Defs and Uses lists of the emitted instructions.
	regBuf []ir.Reg

	// instrBuf backs the blocks' instruction lists: the block being
	// lowered is instrBuf[blockFrom:].
	instrBuf  []ir.Instr
	blockFrom int

	cur *ir.Block
}

// stackVal is one symbolic operand-stack entry.
type stackVal struct {
	reg ir.Reg
	// fromLocal >= 0 means the entry is a lazy reference to that local
	// slot's register (invalidated when the local is stored to).
	fromLocal int32
}

func (lo *lowerer) newInt() ir.Reg {
	lo.nextInt++
	return ir.Reg{Class: ir.ClassInt, N: ir.NumGPR - 1 + lo.nextInt}
}

func (lo *lowerer) newFloat() ir.Reg {
	lo.nextFloat++
	return ir.Reg{Class: ir.ClassFloat, N: ir.NumFPR - 1 + lo.nextFloat}
}

func (lo *lowerer) newCond() ir.Reg {
	lo.nextCond++
	return ir.Reg{Class: ir.ClassCond, N: ir.NumCond - 1 + lo.nextCond}
}

func (lo *lowerer) newGuard() ir.Reg {
	lo.nextGuard++
	return ir.Guard(int(lo.nextGuard) - 1)
}

// regs returns an operand list holding rs, carved from the function's
// backing array. The slice's capacity is clipped to its length, so an
// append by a later pass copies instead of overwriting a neighbour.
func (lo *lowerer) regs(rs ...ir.Reg) []ir.Reg {
	if len(lo.regBuf)+len(rs) > cap(lo.regBuf) {
		// Start a new chunk; lists already handed out keep the old one.
		lo.regBuf = make([]ir.Reg, 0, max(2*cap(lo.regBuf), len(rs)))
	}
	n := len(lo.regBuf)
	lo.regBuf = append(lo.regBuf, rs...)
	return lo.regBuf[n:len(lo.regBuf):len(lo.regBuf)]
}

func (lo *lowerer) emit(in ir.Instr) {
	if len(lo.instrBuf) == cap(lo.instrBuf) {
		// Start a new chunk and move the block being lowered into it;
		// finished blocks keep the old one.
		run := lo.instrBuf[lo.blockFrom:]
		lo.instrBuf = append(make([]ir.Instr, 0, max(2*cap(lo.instrBuf), 16)), run...)
		lo.blockFrom = 0
	}
	lo.instrBuf = append(lo.instrBuf, in)
}

// endBlock hands the current block its instructions, with capacity
// clipped like the operand lists.
func (lo *lowerer) endBlock() {
	n := len(lo.instrBuf)
	lo.cur.Instrs = lo.instrBuf[lo.blockFrom:n:n]
	lo.blockFrom = n
}

func isFloatCell(t bytecode.Type) bool { return t == bytecode.TFloat }

// canonBand is the first virtual register number of the canonical stack
// cells; temps are numbered from just above the physical file up to it.
const canonBand = 1_000_000

// canonStack returns the canonical register for operand-stack position
// depth with the given class — the register block boundaries use.
// Canonical stack registers are drawn from a reserved band of virtual
// numbers so they never collide with temps.
func (lo *lowerer) canonStack(depth int, float bool) ir.Reg {
	if float {
		return ir.Reg{Class: ir.ClassFloat, N: canonBand + int32(depth)}
	}
	return ir.Reg{Class: ir.ClassInt, N: canonBand + int32(depth)}
}

func (lo *lowerer) push(r ir.Reg) {
	lo.stack = append(lo.stack, stackVal{reg: r, fromLocal: -1})
}

func (lo *lowerer) pushLocal(slot int32) {
	lo.stack = append(lo.stack, stackVal{reg: lo.localReg[slot], fromLocal: slot})
}

func (lo *lowerer) pop() ir.Reg {
	v := lo.stack[len(lo.stack)-1]
	lo.stack = lo.stack[:len(lo.stack)-1]
	return v.reg
}

// invalidateLocal copies any stack entries lazily referring to slot into
// fresh temporaries before the local is overwritten.
func (lo *lowerer) invalidateLocal(slot int32) {
	for i := range lo.stack {
		if lo.stack[i].fromLocal == slot {
			src := lo.stack[i].reg
			var t ir.Reg
			var op ir.Op
			if src.Class == ir.ClassFloat {
				t, op = lo.newFloat(), ir.FMR
			} else {
				t, op = lo.newInt(), ir.MR
			}
			lo.emit(ir.Instr{Op: op, Defs: lo.regs(t), Uses: lo.regs(src)})
			lo.stack[i] = stackVal{reg: t, fromLocal: -1}
		}
	}
}

// materializeStack moves every remaining symbolic entry into its canonical
// stack register, so successor blocks find values where they expect them.
func (lo *lowerer) materializeStack() {
	for i := range lo.stack {
		v := lo.stack[i]
		canon := lo.canonStack(i, v.reg.Class == ir.ClassFloat)
		if v.reg == canon {
			continue
		}
		op := ir.MR
		if v.reg.Class == ir.ClassFloat {
			op = ir.FMR
		}
		lo.emit(ir.Instr{Op: op, Defs: lo.regs(canon), Uses: lo.regs(v.reg)})
		lo.stack[i] = stackVal{reg: canon, fromLocal: -1}
	}
}

// lowerFn lowers one function. shapes are its per-leader entry stack
// types.
func lowerFn(m *bytecode.Module, f *bytecode.Fn, shapes map[int][]bytecode.Type) (*ir.Fn, error) {
	blocks, blockAt := buildCFG(f)
	// Over the bundled workloads a bytecode instruction lowers to about
	// one machine instruction with about two operands; size the backing
	// arrays a quarter above that, and let emit and regs grow past it.
	n := len(f.Code) + len(f.Code)/4 + 8
	lo := &lowerer{
		m: m, f: f, blockAt: blockAt,
		instrBuf: make([]ir.Instr, 0, n),
		regBuf:   make([]ir.Reg, 0, 2*n),
	}
	nInt, nFloat := 0, 0
	for _, p := range f.Params {
		if isFloatCell(p) {
			nFloat++
		} else {
			nInt++
		}
	}
	if nInt > maxArgs || nFloat > maxArgs {
		return nil, fmt.Errorf("jit: %s: too many arguments (max %d per class)", f.Name, maxArgs)
	}
	lo.out = &ir.Fn{
		Name:         f.Name,
		NumIntArgs:   nInt,
		NumFloatArgs: nFloat,
		RetFloat:     f.Ret == bytecode.TFloat,
	}

	// Dedicated vreg per local slot.
	lo.localReg = make([]ir.Reg, len(f.Locals))
	for i, t := range f.Locals {
		if isFloatCell(t) {
			lo.localReg[i] = lo.newFloat()
		} else {
			lo.localReg[i] = lo.newInt()
		}
	}

	for bi := range blocks {
		bb := &blocks[bi]
		lo.cur = &ir.Block{ID: bi, LoopHead: bb.LoopHead}
		lo.out.Blocks = append(lo.out.Blocks, lo.cur)

		// Hazard points: thread-switch point in the prologue, yield
		// point at every loop head (back-edge target), as in Jikes RVM.
		if bi == 0 {
			lo.emit(ir.Instr{Op: ir.TSPOINT})
			lo.emitParamMoves(f)
		}
		if bb.LoopHead {
			lo.emit(ir.Instr{Op: ir.YIELDPOINT})
		}

		// Entry stack: canonical registers per the verified shape.
		shape, reachable := shapes[bb.Start]
		if !reachable && bi != 0 {
			// Unreachable block (dead code after a return): emit a
			// self-loop placeholder so block IDs stay dense; it can
			// never execute.
			lo.emit(ir.Instr{Op: ir.B, Target: bi})
			lo.endBlock()
			lo.cur.Succs = []int{bi}
			continue
		}
		lo.stack = lo.stack[:0]
		for d, t := range shape {
			lo.push(lo.canonStack(d, isFloatCell(t)))
		}

		if err := lo.lowerRange(f, bb); err != nil {
			return nil, err
		}
		lo.endBlock()
		lo.cur.Succs = bb.Succs
	}
	return lo.out, nil
}

// emitParamMoves copies ABI argument registers into the parameter locals.
func (lo *lowerer) emitParamMoves(f *bytecode.Fn) {
	iIdx, fIdx := 0, 0
	for slot, t := range f.Params {
		if isFloatCell(t) {
			lo.emit(ir.Instr{Op: ir.FMR, Defs: lo.regs(lo.localReg[slot]), Uses: lo.regs(ir.ArgFloat(fIdx))})
			fIdx++
		} else {
			lo.emit(ir.Instr{Op: ir.MR, Defs: lo.regs(lo.localReg[slot]), Uses: lo.regs(ir.ArgInt(iIdx))})
			iIdx++
		}
	}
}

// lowerRange lowers the instructions of one bytecode block.
func (lo *lowerer) lowerRange(f *bytecode.Fn, bb *bbRange) error {
	for pc := bb.Start; pc < bb.End; pc++ {
		in := f.Code[pc]
		switch in.Op {
		case bytecode.NOP:
		case bytecode.ICONST:
			t := lo.newInt()
			lo.emit(ir.Instr{Op: ir.LI, Defs: lo.regs(t), Imm: in.I})
			lo.push(t)
		case bytecode.FCONST:
			t := lo.newFloat()
			lo.emit(ir.Instr{Op: ir.LFI, Defs: lo.regs(t), FImm: in.F})
			lo.push(t)
		case bytecode.ILOAD, bytecode.FLOAD:
			lo.pushLocal(in.A)
		case bytecode.ISTORE, bytecode.FSTORE:
			v := lo.pop()
			lo.invalidateLocal(in.A)
			op := ir.MR
			if in.Op == bytecode.FSTORE {
				op = ir.FMR
			}
			lo.emit(ir.Instr{Op: op, Defs: lo.regs(lo.localReg[in.A]), Uses: lo.regs(v)})
		case bytecode.GILOAD:
			t := lo.newInt()
			lo.emit(ir.Instr{Op: ir.LD, Defs: lo.regs(t), Uses: lo.regs(regGlobals), Imm: int64(in.A)})
			lo.push(t)
		case bytecode.GFLOAD:
			t := lo.newFloat()
			lo.emit(ir.Instr{Op: ir.LFD, Defs: lo.regs(t), Uses: lo.regs(regGlobals), Imm: int64(in.A)})
			lo.push(t)
		case bytecode.GISTORE:
			v := lo.pop()
			lo.emit(ir.Instr{Op: ir.ST, Uses: lo.regs(v, regGlobals), Imm: int64(in.A)})
		case bytecode.GFSTORE:
			v := lo.pop()
			lo.emit(ir.Instr{Op: ir.STFD, Uses: lo.regs(v, regGlobals), Imm: int64(in.A)})
		case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IDIV,
			bytecode.IAND, bytecode.IOR, bytecode.IXOR, bytecode.ISHL, bytecode.ISHR:
			b := lo.pop()
			a := lo.pop()
			t := lo.newInt()
			lo.emit(ir.Instr{Op: intALUOp(in.Op), Defs: lo.regs(t), Uses: lo.regs(a, b)})
			lo.push(t)
		case bytecode.IREM:
			// a % b  →  q = a/b; m = q*b; r = a-m  (PowerPC has no
			// remainder instruction).
			b := lo.pop()
			a := lo.pop()
			q := lo.newInt()
			mv := lo.newInt()
			r := lo.newInt()
			lo.emit(ir.Instr{Op: ir.DIVW, Defs: lo.regs(q), Uses: lo.regs(a, b)})
			lo.emit(ir.Instr{Op: ir.MULL, Defs: lo.regs(mv), Uses: lo.regs(q, b)})
			lo.emit(ir.Instr{Op: ir.SUB, Defs: lo.regs(r), Uses: lo.regs(a, mv)})
			lo.push(r)
		case bytecode.INEG:
			a := lo.pop()
			t := lo.newInt()
			lo.emit(ir.Instr{Op: ir.NEG, Defs: lo.regs(t), Uses: lo.regs(a)})
			lo.push(t)
		case bytecode.FADD, bytecode.FSUB, bytecode.FMUL, bytecode.FDIV:
			b := lo.pop()
			a := lo.pop()
			t := lo.newFloat()
			lo.emit(ir.Instr{Op: floatALUOp(in.Op), Defs: lo.regs(t), Uses: lo.regs(a, b)})
			lo.push(t)
		case bytecode.FNEG:
			a := lo.pop()
			t := lo.newFloat()
			lo.emit(ir.Instr{Op: ir.FNEG, Defs: lo.regs(t), Uses: lo.regs(a)})
			lo.push(t)
		case bytecode.I2F:
			a := lo.pop()
			t := lo.newFloat()
			lo.emit(ir.Instr{Op: ir.I2F, Defs: lo.regs(t), Uses: lo.regs(a)})
			lo.push(t)
		case bytecode.F2I:
			a := lo.pop()
			t := lo.newInt()
			lo.emit(ir.Instr{Op: ir.F2I, Defs: lo.regs(t), Uses: lo.regs(a)})
			lo.push(t)
		case bytecode.GOTO:
			lo.materializeStack()
			lo.emit(ir.Instr{Op: ir.B, Target: lo.blockAt[in.A]})
		case bytecode.IFICMPLT, bytecode.IFICMPGT, bytecode.IFICMPEQ,
			bytecode.IFICMPNE, bytecode.IFICMPLE, bytecode.IFICMPGE:
			b := lo.pop()
			a := lo.pop()
			cr := lo.newCond()
			lo.emit(ir.Instr{Op: ir.CMP, Defs: lo.regs(cr), Uses: lo.regs(a, b)})
			lo.materializeStack()
			lo.emit(ir.Instr{Op: ir.BC, Uses: lo.regs(cr), Imm: condCode(in.Op), Target: lo.blockAt[in.A]})
		case bytecode.IFFCMPLT, bytecode.IFFCMPGT, bytecode.IFFCMPEQ,
			bytecode.IFFCMPNE, bytecode.IFFCMPLE, bytecode.IFFCMPGE:
			b := lo.pop()
			a := lo.pop()
			cr := lo.newCond()
			lo.emit(ir.Instr{Op: ir.FCMP, Defs: lo.regs(cr), Uses: lo.regs(a, b)})
			lo.materializeStack()
			lo.emit(ir.Instr{Op: ir.BC, Uses: lo.regs(cr), Imm: condCode(in.Op), Target: lo.blockAt[in.A]})
		case bytecode.CALL:
			if err := lo.lowerCall(in); err != nil {
				return err
			}
		case bytecode.RET:
			lo.emit(ir.Instr{Op: ir.BLR})
		case bytecode.IRET:
			v := lo.pop()
			lo.emit(ir.Instr{Op: ir.MR, Defs: lo.regs(ir.RetInt), Uses: lo.regs(v)})
			lo.emit(ir.Instr{Op: ir.BLR, Uses: lo.regs(ir.RetInt)})
		case bytecode.FRET:
			v := lo.pop()
			lo.emit(ir.Instr{Op: ir.FMR, Defs: lo.regs(ir.RetFloat), Uses: lo.regs(v)})
			lo.emit(ir.Instr{Op: ir.BLR, Uses: lo.regs(ir.RetFloat)})
		case bytecode.NEWARRI, bytecode.NEWARRF:
			n := lo.pop()
			t := lo.newInt()
			lo.emit(ir.Instr{Op: ir.ALLOC, Defs: lo.regs(t), Uses: lo.regs(n)})
			lo.push(t)
		case bytecode.IALOAD, bytecode.FALOAD:
			idx := lo.pop()
			ref := lo.pop()
			dst := lo.arrayLoad(in.Op == bytecode.FALOAD, ref, idx)
			lo.push(dst)
		case bytecode.IASTORE, bytecode.FASTORE:
			v := lo.pop()
			idx := lo.pop()
			ref := lo.pop()
			lo.arrayStore(in.Op == bytecode.FASTORE, ref, idx, v)
		case bytecode.ALEN:
			ref := lo.pop()
			g := lo.newGuard()
			lo.emit(ir.Instr{Op: ir.NULLCHECK, Defs: lo.regs(g), Uses: lo.regs(ref)})
			t := lo.newInt()
			lo.emit(ir.Instr{Op: ir.LD, Defs: lo.regs(t), Uses: lo.regs(ref, g), Imm: 0})
			lo.push(t)
		case bytecode.POP, bytecode.FPOP:
			lo.pop()
		case bytecode.DUP, bytecode.FDUP:
			top := lo.stack[len(lo.stack)-1]
			lo.stack = append(lo.stack, top)
		case bytecode.PRINTI:
			v := lo.pop()
			lo.emit(ir.Instr{Op: ir.RTPRINTI, Uses: lo.regs(v)})
		case bytecode.PRINTF:
			v := lo.pop()
			lo.emit(ir.Instr{Op: ir.RTPRINTF, Uses: lo.regs(v)})
		default:
			return fmt.Errorf("jit: cannot lower %v", in.Op)
		}
	}
	// Pure fall-through block: materialize and branch explicitly so
	// every machine block ends in a branch.
	last := f.Code[bb.End-1]
	if !last.Op.IsBranch() && !last.Op.IsTerminator() {
		lo.materializeStack()
		lo.emit(ir.Instr{Op: ir.B, Target: lo.blockAt[bb.End]})
	}
	return nil
}

// arrayLoad emits null check, length load, bounds check, address
// computation, and the guarded element load; returns the destination.
func (lo *lowerer) arrayLoad(isFloat bool, ref, idx ir.Reg) ir.Reg {
	g1 := lo.newGuard()
	lo.emit(ir.Instr{Op: ir.NULLCHECK, Defs: lo.regs(g1), Uses: lo.regs(ref)})
	length := lo.newInt()
	lo.emit(ir.Instr{Op: ir.LD, Defs: lo.regs(length), Uses: lo.regs(ref, g1), Imm: 0})
	g2 := lo.newGuard()
	lo.emit(ir.Instr{Op: ir.BOUNDSCHECK, Defs: lo.regs(g2), Uses: lo.regs(idx, length)})
	addr := lo.newInt()
	lo.emit(ir.Instr{Op: ir.ADDI, Defs: lo.regs(addr), Uses: lo.regs(idx), Imm: 1})
	var dst ir.Reg
	if isFloat {
		dst = lo.newFloat()
		lo.emit(ir.Instr{Op: ir.LFDX, Defs: lo.regs(dst), Uses: lo.regs(ref, addr, g2)})
	} else {
		dst = lo.newInt()
		lo.emit(ir.Instr{Op: ir.LDX, Defs: lo.regs(dst), Uses: lo.regs(ref, addr, g2)})
	}
	return dst
}

// arrayStore is the store-side counterpart of arrayLoad.
func (lo *lowerer) arrayStore(isFloat bool, ref, idx, v ir.Reg) {
	g1 := lo.newGuard()
	lo.emit(ir.Instr{Op: ir.NULLCHECK, Defs: lo.regs(g1), Uses: lo.regs(ref)})
	length := lo.newInt()
	lo.emit(ir.Instr{Op: ir.LD, Defs: lo.regs(length), Uses: lo.regs(ref, g1), Imm: 0})
	g2 := lo.newGuard()
	lo.emit(ir.Instr{Op: ir.BOUNDSCHECK, Defs: lo.regs(g2), Uses: lo.regs(idx, length)})
	addr := lo.newInt()
	lo.emit(ir.Instr{Op: ir.ADDI, Defs: lo.regs(addr), Uses: lo.regs(idx), Imm: 1})
	if isFloat {
		lo.emit(ir.Instr{Op: ir.STFX, Uses: lo.regs(v, ref, addr, g2)})
	} else {
		lo.emit(ir.Instr{Op: ir.STX, Uses: lo.regs(v, ref, addr, g2)})
	}
}

// lowerCall moves arguments into ABI registers, emits the call, and
// captures the return value.
func (lo *lowerer) lowerCall(in bytecode.Insn) error {
	callee := lo.m.Fns[in.A]
	np := len(callee.Params)
	args := make([]ir.Reg, np)
	for i := np - 1; i >= 0; i-- {
		args[i] = lo.pop()
	}
	iIdx, fIdx := 0, 0
	var abiBuf [2 * maxArgs]ir.Reg
	abiUses := abiBuf[:0]
	for i, t := range callee.Params {
		if isFloatCell(t) {
			dst := ir.ArgFloat(fIdx)
			fIdx++
			lo.emit(ir.Instr{Op: ir.FMR, Defs: lo.regs(dst), Uses: lo.regs(args[i])})
			abiUses = append(abiUses, dst)
		} else {
			dst := ir.ArgInt(iIdx)
			iIdx++
			lo.emit(ir.Instr{Op: ir.MR, Defs: lo.regs(dst), Uses: lo.regs(args[i])})
			abiUses = append(abiUses, dst)
		}
	}
	if iIdx > maxArgs || fIdx > maxArgs {
		return fmt.Errorf("jit: call to %s: too many arguments", callee.Name)
	}
	call := ir.Instr{Op: ir.BL, Target: int(in.A), Sym: callee.Name}
	if len(abiUses) > 0 {
		call.Uses = lo.regs(abiUses...)
	}
	switch callee.Ret {
	case bytecode.TVoid:
		lo.emit(call)
	case bytecode.TFloat:
		call.Defs = []ir.Reg{ir.RetFloat}
		lo.emit(call)
		t := lo.newFloat()
		lo.emit(ir.Instr{Op: ir.FMR, Defs: lo.regs(t), Uses: lo.regs(ir.RetFloat)})
		lo.push(t)
	default:
		call.Defs = []ir.Reg{ir.RetInt}
		lo.emit(call)
		t := lo.newInt()
		lo.emit(ir.Instr{Op: ir.MR, Defs: lo.regs(t), Uses: lo.regs(ir.RetInt)})
		lo.push(t)
	}
	return nil
}

func intALUOp(op bytecode.Op) ir.Op {
	switch op {
	case bytecode.IADD:
		return ir.ADD
	case bytecode.ISUB:
		return ir.SUB
	case bytecode.IMUL:
		return ir.MULL
	case bytecode.IDIV:
		return ir.DIVW
	case bytecode.IAND:
		return ir.AND
	case bytecode.IOR:
		return ir.OR
	case bytecode.IXOR:
		return ir.XOR
	case bytecode.ISHL:
		return ir.SLW
	case bytecode.ISHR:
		return ir.SRAW
	}
	panic("jit: not an int ALU op")
}

func floatALUOp(op bytecode.Op) ir.Op {
	switch op {
	case bytecode.FADD:
		return ir.FADD
	case bytecode.FSUB:
		return ir.FSUB
	case bytecode.FMUL:
		return ir.FMUL
	case bytecode.FDIV:
		return ir.FDIV
	}
	panic("jit: not a float ALU op")
}

func condCode(op bytecode.Op) int64 {
	switch op {
	case bytecode.IFICMPLT, bytecode.IFFCMPLT:
		return ir.CondLT
	case bytecode.IFICMPGT, bytecode.IFFCMPGT:
		return ir.CondGT
	case bytecode.IFICMPEQ, bytecode.IFFCMPEQ:
		return ir.CondEQ
	case bytecode.IFICMPNE, bytecode.IFFCMPNE:
		return ir.CondNE
	case bytecode.IFICMPLE, bytecode.IFFCMPLE:
		return ir.CondLE
	case bytecode.IFICMPGE, bytecode.IFFCMPGE:
		return ir.CondGE
	}
	panic("jit: not a compare branch")
}
