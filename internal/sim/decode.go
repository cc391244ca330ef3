package sim

import (
	"fmt"
	"math"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// instr is one instruction decoded for the dispatch loop: everything the
// loop needs to execute it, so that the loop never reads the *ir.Instr.
type instr struct {
	// imm is the integer immediate; for LFI the bits of the float
	// immediate; for BC the set of compare results that take the branch
	// (bit cmp+1 for cmp in {-1, 0, 1}).
	imm int64
	// op is the opcode, or a fused opcode (see pairs) when this record
	// and the next execute as one.
	op ir.Op
	// a, b and c are the register numbers the opcode reads (Uses[0..2]),
	// d the one it writes (Defs[0]), each in the register file the
	// opcode names. Decoding checks that every one is physical.
	a, b, c, d uint8
	// seg is the length of the straight-line segment that starts here:
	// this instruction up to and including the next control instruction,
	// or up to the end of the block when no control instruction follows.
	seg int32
	// tgt is a B or BC's taken block or a BL's callee; alt is a BC's
	// fall-through block.
	tgt, alt int32
	// timing is the segment that starts here, decoded for the run's
	// issue state (timed runs, first instruction of a segment only).
	timing machine.Segment
}

// fnCode is a function in the form the dispatch loop walks: blocks[b]
// holds block b's instructions, decoded.
type fnCode struct {
	fn     *ir.Fn
	blocks [][]instr
}

// operands gives, per opcode, the register classes of the operands the
// simulator reads, Uses[0], Uses[1], ... in order, and of the one it
// writes, Defs[0] (0 when it writes none): 'i' integer, 'f' float, 'c'
// condition. Further Uses and Defs (guards, call arguments, return
// registers) only order instructions for the timing model.
var operands = [ir.NumOps]struct {
	reads  string
	writes byte
}{
	ir.NOP: {"", 0}, ir.YIELDPOINT: {"", 0}, ir.TSPOINT: {"", 0},
	ir.ADD: {"ii", 'i'}, ir.SUB: {"ii", 'i'}, ir.MULL: {"ii", 'i'}, ir.DIVW: {"ii", 'i'},
	ir.AND: {"ii", 'i'}, ir.OR: {"ii", 'i'}, ir.XOR: {"ii", 'i'},
	ir.SLW: {"ii", 'i'}, ir.SRAW: {"ii", 'i'}, ir.NEG: {"i", 'i'},
	ir.ADDI: {"i", 'i'}, ir.ANDI: {"i", 'i'}, ir.ORI: {"i", 'i'}, ir.XORI: {"i", 'i'},
	ir.SLWI: {"i", 'i'}, ir.SRAWI: {"i", 'i'}, ir.LI: {"", 'i'}, ir.MR: {"i", 'i'},
	ir.CMP: {"ii", 'c'}, ir.CMPI: {"i", 'c'},
	ir.FADD: {"ff", 'f'}, ir.FSUB: {"ff", 'f'}, ir.FMUL: {"ff", 'f'}, ir.FDIV: {"ff", 'f'},
	ir.FNEG: {"f", 'f'}, ir.FMR: {"f", 'f'}, ir.FCMP: {"ff", 'c'},
	ir.F2I: {"f", 'i'}, ir.I2F: {"i", 'f'}, ir.LFI: {"", 'f'},
	ir.LD: {"i", 'i'}, ir.LDX: {"ii", 'i'}, ir.LFD: {"i", 'f'}, ir.LFDX: {"ii", 'f'},
	ir.ST: {"ii", 0}, ir.STX: {"iii", 0}, ir.STFD: {"fi", 0}, ir.STFX: {"fii", 0},
	ir.B: {"", 0}, ir.BC: {"c", 0}, ir.BL: {"", 0}, ir.BLR: {"", 0},
	ir.ALLOC: {"i", 'i'}, ir.NULLCHECK: {"i", 0}, ir.BOUNDSCHECK: {"ii", 0},
	ir.RTPRINTI: {"i", 0}, ir.RTPRINTF: {"f", 0},
}

// physReg returns r's number, checking that r is a physical register of
// the class an operands letter names.
func physReg(r ir.Reg, class byte) (uint8, error) {
	want := ir.ClassInt
	switch class {
	case 'f':
		want = ir.ClassFloat
	case 'c':
		want = ir.ClassCond
	}
	if r.Class != want || !r.IsPhys() {
		return 0, fmt.Errorf("operand %v is not a physical %v register", r, want)
	}
	return uint8(r.N), nil
}

// decode puts fns in dispatch form into code (one entry per function),
// backed by two allocations, with opcode pairs fused unless ex.unfused.
// A timed run also decodes each straight-line segment through its issue
// state, which gives each virtual register one ready slot program-wide.
// Calls may name any function in ex.code. A malformed instruction,
// reachable or not, fails the decode.
func (ex *executor) decode(fns []*ir.Fn, code []fnCode) error {
	nInstrs, nBlocks := 0, 0
	for _, f := range fns {
		nBlocks += len(f.Blocks)
		for _, b := range f.Blocks {
			nInstrs += len(b.Instrs)
		}
	}
	all := make([]instr, 0, nInstrs)
	blocks := make([][]instr, nBlocks)
	for i, f := range fns {
		if f.Entry < 0 || f.Entry >= len(f.Blocks) {
			return fmt.Errorf("sim: %s: entry block %d out of range", f.Name, f.Entry)
		}
		code[i] = fnCode{fn: f, blocks: blocks[:len(f.Blocks):len(f.Blocks)]}
		for bi, b := range f.Blocks {
			start := len(all)
			for j := range b.Instrs {
				in := &b.Instrs[j]
				d, err := decodeInstr(in, b, len(f.Blocks), len(ex.code))
				if err != nil {
					return fmt.Errorf("sim: %s block %d instruction %d (%v): %s", f.Name, bi, j, in, err)
				}
				all = append(all, d)
			}
			code := segments(all[start:len(all):len(all)])
			if ex.issue != nil {
				for j := 0; j < len(code); j += int(code[j].seg) {
					code[j].timing = ex.issue.DecodeSegment(b.Instrs[j : j+int(code[j].seg)])
				}
			}
			if !ex.unfused {
				fuse(code)
			}
			blocks[bi] = code
		}
		blocks = blocks[len(f.Blocks):]
	}
	return nil
}

// decodeInstr decodes in, an instruction of block b in a function of
// nBlocks blocks in a program of nFns functions, and checks everything
// the dispatch loop relies on: a known opcode, its register operands
// present and physical, branch targets, callees and condition codes in
// range.
func decodeInstr(in *ir.Instr, b *ir.Block, nBlocks, nFns int) (instr, error) {
	d := instr{op: in.Op, imm: in.Imm}
	if int(in.Op) >= ir.NumOps {
		return d, fmt.Errorf("unknown opcode")
	}
	sig := operands[in.Op]
	if len(in.Uses) < len(sig.reads) || sig.writes != 0 && len(in.Defs) == 0 {
		return d, fmt.Errorf("too few operands")
	}
	var regs [3]uint8
	for k := range len(sig.reads) {
		r, err := physReg(in.Uses[k], sig.reads[k])
		if err != nil {
			return d, err
		}
		regs[k] = r
	}
	d.a, d.b, d.c = regs[0], regs[1], regs[2]
	if sig.writes != 0 {
		r, err := physReg(in.Defs[0], sig.writes)
		if err != nil {
			return d, err
		}
		d.d = r
	}
	switch in.Op {
	case ir.LFI:
		d.imm = int64(math.Float64bits(in.FImm))
	case ir.B, ir.BC:
		if in.Target < 0 || in.Target >= nBlocks {
			return d, fmt.Errorf("branch target %d out of range", in.Target)
		}
		d.tgt = int32(in.Target)
		if in.Op == ir.B {
			break
		}
		if len(b.Succs) < 2 || b.Succs[1] < 0 || b.Succs[1] >= nBlocks {
			return d, fmt.Errorf("no fall-through block among successors %v", b.Succs)
		}
		d.alt = int32(b.Succs[1])
		if in.Imm < ir.CondLT || in.Imm > ir.CondGE {
			return d, fmt.Errorf("bad condition code %d", in.Imm)
		}
		d.imm = 0
		for cmp := int8(-1); cmp <= 1; cmp++ {
			if ir.EvalCond(in.Imm, cmp) {
				d.imm |= 1 << (cmp + 1)
			}
		}
	case ir.BL:
		if in.Target < 0 || in.Target >= nFns {
			return d, fmt.Errorf("callee %d out of range", in.Target)
		}
		d.tgt = int32(in.Target)
	}
	return d, nil
}

// segments sets the segment length of every instruction of a block and
// returns the block.
func segments(code []instr) []instr {
	for j := len(code) - 1; j >= 0; j-- {
		code[j].seg = 1
		if j+1 < len(code) && !code[j].op.IsBranchOp() {
			code[j].seg += code[j+1].seg
		}
	}
	return code
}

// Fused opcodes (superoperators, after Proebsting, POPL 1995): a record
// whose op is one of these executes itself as pairs[op-fused].first and
// the next record of its block as pairs[op-fused].second, in one dispatch.
// The second record stays in place, so return points, counts and segment
// lengths are those of the unfused code.
const (
	nullcheckLD = fused + iota
	ldBoundscheck
	boundscheckADDI
	cmpBC
	mrB
	liADD
	addMR
	addiLDX
	ldLD
	ldNullcheck
	addiLD
)

// fused is the first fused opcode, just past the real ones.
const fused = ir.Op(ir.NumOps)

// pairs are the fused opcodes' halves: the adjacent pairs most frequent
// in the bundled programs' executions, weighted by block counts, under
// the unscheduled and the list-scheduled order, at the default and the
// training compile options (docs/perf.md lists their shares). No pair
// contains BL or BLR, and only a second half is a control instruction, so
// a pair never spans a segment boundary or a return point.
var pairs = [...]struct{ first, second ir.Op }{
	nullcheckLD - fused:     {ir.NULLCHECK, ir.LD},
	ldBoundscheck - fused:   {ir.LD, ir.BOUNDSCHECK},
	boundscheckADDI - fused: {ir.BOUNDSCHECK, ir.ADDI},
	cmpBC - fused:           {ir.CMP, ir.BC},
	mrB - fused:             {ir.MR, ir.B},
	liADD - fused:           {ir.LI, ir.ADD},
	addMR - fused:           {ir.ADD, ir.MR},
	addiLDX - fused:         {ir.ADDI, ir.LDX},
	ldLD - fused:            {ir.LD, ir.LD},
	ldNullcheck - fused:     {ir.LD, ir.NULLCHECK},
	addiLD - fused:          {ir.ADDI, ir.LD},
}

// fusedOf maps an opcode pair to its fused opcode, or to 0.
var fusedOf = func() (m [ir.NumOps][ir.NumOps]ir.Op) {
	for i, p := range pairs {
		m[p.first][p.second] = fused + ir.Op(i)
	}
	return m
}()

// fuse gives each pair in a block's decoded code, taken left to right,
// its fused opcode in the first record, and returns the code.
func fuse(code []instr) []instr {
	for j := 0; j+1 < len(code); j++ {
		if f := fusedOf[code[j].op][code[j+1].op]; f != 0 {
			code[j].op = f
			j++
		}
	}
	return code
}

// unfuse restores a record's own opcode, for a step limit that cuts a
// pair between its halves.
func unfuse(d *instr) {
	if d.op >= fused {
		d.op = pairs[d.op-fused].first
	}
}
