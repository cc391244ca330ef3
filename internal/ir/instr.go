package ir

import (
	"fmt"
	"strings"
)

// Instr is a single machine instruction. Defs and Uses carry the register
// operands; Imm/FImm carry immediates; Target names a branch-target block
// (B, BC) or a callee function index (BL).
type Instr struct {
	Op     Op
	Defs   []Reg
	Uses   []Reg
	Imm    int64
	FImm   float64
	Target int
	// Sym is an optional annotation (callee name, variable name) used
	// only for printing.
	Sym string
}

// NewInstr constructs an instruction with the given defs and uses.
func NewInstr(op Op, defs, uses []Reg) Instr {
	return Instr{Op: op, Defs: defs, Uses: uses}
}

// Clone returns a deep copy of the instruction.
func (in Instr) Clone() Instr {
	out := in
	out.Defs = append([]Reg(nil), in.Defs...)
	out.Uses = append([]Reg(nil), in.Uses...)
	return out
}

func (in Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	sep := " "
	for _, d := range in.Defs {
		b.WriteString(sep)
		b.WriteString(d.String())
		sep = ", "
	}
	for _, u := range in.Uses {
		b.WriteString(sep)
		b.WriteString(u.String())
		sep = ", "
	}
	switch in.Op {
	case LI, ADDI, ANDI, ORI, XORI, SLWI, SRAWI, CMPI, LD, ST, LFD, STFD:
		fmt.Fprintf(&b, "%s%d", sep, in.Imm)
	case LFI:
		fmt.Fprintf(&b, "%s%g", sep, in.FImm)
	case B:
		fmt.Fprintf(&b, "%sb%d", sep, in.Target)
	case BC:
		fmt.Fprintf(&b, "%s%s, b%d", sep, condString(in.Imm), in.Target)
	case BL:
		if in.Sym != "" {
			fmt.Fprintf(&b, "%s%s", sep, in.Sym)
		} else {
			fmt.Fprintf(&b, "%sfn%d", sep, in.Target)
		}
	}
	return b.String()
}

// Block is a basic block: a single-entry, single-exit straight-line
// instruction sequence. The final instruction is the (sole) branch, except
// in fall-through blocks, which may end without one.
type Block struct {
	ID     int
	Instrs []Instr
	// Succs lists successor block IDs within the owning function; for a
	// BC terminator Succs[0] is the taken target and Succs[1] the
	// fall-through.
	Succs []int
	// LoopHead marks back-edge targets (used for yield-point insertion
	// and reporting).
	LoopHead bool
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.Instrs) }

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{ID: b.ID, Succs: append([]int(nil), b.Succs...), LoopHead: b.LoopHead}
	nb.Instrs = make([]Instr, len(b.Instrs))
	for i := range b.Instrs {
		nb.Instrs[i] = b.Instrs[i].Clone()
	}
	return nb
}

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "b%d:", b.ID)
	if b.LoopHead {
		sb.WriteString(" ; loop head")
	}
	sb.WriteString("\n")
	for i := range b.Instrs {
		fmt.Fprintf(&sb, "\t%s\n", b.Instrs[i].String())
	}
	return sb.String()
}

// Fn is a compiled function: an entry block plus a set of basic blocks.
type Fn struct {
	Name   string
	Blocks []*Block
	// Entry is the index into Blocks of the entry block (always 0 for
	// JIT-produced code).
	Entry int
	// NumIntArgs and NumFloatArgs describe the calling convention the
	// function expects.
	NumIntArgs   int
	NumFloatArgs int
	// RetFloat reports whether the function returns a float (in
	// RetFloat) rather than an int (in RetInt).
	RetFloat bool
	// FrameSlots is the number of spill slots the function's frame
	// needs (word units).
	FrameSlots int
}

// Clone returns a deep copy of the function.
func (f *Fn) Clone() *Fn {
	nf := &Fn{}
	*nf = *f
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.Clone()
	}
	return nf
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Fn) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func (f *Fn) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fn %s (ints=%d floats=%d):\n", f.Name, f.NumIntArgs, f.NumFloatArgs)
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}

// Program is a set of compiled functions plus the entry point.
type Program struct {
	Fns []*Fn
	// Entry is the index of the function execution starts in.
	Entry int
	// Globals is the number of global word slots the program uses.
	Globals int
}

// FnByName returns the function with the given name, or nil.
func (p *Program) FnByName(name string) *Fn {
	for _, f := range p.Fns {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Clone returns a deep copy of the program in a fixed number of
// allocations, however many instructions it holds: functions, blocks,
// instructions, successor lists and register operands each live in one
// flat backing array. Every slice handed out is cut with a full slice
// expression, so an append on one block's Instrs or one instruction's
// Defs reallocates instead of overwriting its neighbour. Empty operand
// and successor lists clone to nil, as Fn.Clone's do.
func (p *Program) Clone() *Program {
	var nBlocks, nInstrs, nSuccs, nRegs int
	for _, f := range p.Fns {
		nBlocks += len(f.Blocks)
		for _, b := range f.Blocks {
			nInstrs += len(b.Instrs)
			nSuccs += len(b.Succs)
			for i := range b.Instrs {
				nRegs += len(b.Instrs[i].Defs) + len(b.Instrs[i].Uses)
			}
		}
	}
	fns := make([]Fn, len(p.Fns))
	fnPtrs := make([]*Fn, len(p.Fns))
	blocks := make([]Block, nBlocks)
	blockPtrs := make([]*Block, nBlocks)
	instrs := make([]Instr, nInstrs)
	succs := make([]int, nSuccs)
	regs := make([]Reg, nRegs)
	// cutRegs copies src onto the front of regs and returns the copy.
	cutRegs := func(src []Reg) []Reg {
		if len(src) == 0 {
			return nil
		}
		n := copy(regs, src)
		out := regs[:n:n]
		regs = regs[n:]
		return out
	}
	for fi, f := range p.Fns {
		nf := &fns[fi]
		*nf = *f
		nf.Blocks = blockPtrs[:len(f.Blocks):len(f.Blocks)]
		blockPtrs = blockPtrs[len(f.Blocks):]
		for bi, b := range f.Blocks {
			nb := &blocks[0]
			blocks = blocks[1:]
			*nb = *b
			nb.Instrs = instrs[:len(b.Instrs):len(b.Instrs)]
			instrs = instrs[len(b.Instrs):]
			nb.Succs = nil
			if n := len(b.Succs); n > 0 {
				nb.Succs = succs[:n:n]
				succs = succs[copy(succs, b.Succs):]
			}
			for i := range b.Instrs {
				in := &nb.Instrs[i]
				*in = b.Instrs[i]
				in.Defs = cutRegs(in.Defs)
				in.Uses = cutRegs(in.Uses)
			}
			nf.Blocks[bi] = nb
		}
		fnPtrs[fi] = nf
	}
	return &Program{Fns: fnPtrs, Entry: p.Entry, Globals: p.Globals}
}

// NumBlocks returns the total basic-block count across all functions.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Fns {
		n += len(f.Blocks)
	}
	return n
}

// NumInstrs returns the total instruction count across all functions.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Fns {
		n += f.NumInstrs()
	}
	return n
}

func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Fns {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	return sb.String()
}
