// Package bytecode defines the stack bytecode the Jolt front end targets
// and the JIT consumes — the reproduction's stand-in for Java bytecode.
// It provides the instruction set, a module container, a structural/stack
// verifier, a disassembler, and a binary wire encoding.
package bytecode

import "fmt"

// Op is a bytecode opcode. The machine is a typed stack machine with
// int64 and float64 values; booleans are ints (0/1) and array references
// are opaque int handles.
type Op uint8

const (
	NOP Op = iota

	// Constants.
	ICONST // push I
	FCONST // push F

	// Locals.
	ILOAD  // push int local A
	FLOAD  // push float local A
	ISTORE // pop int into local A
	FSTORE // pop float into local A

	// Globals.
	GILOAD  // push int global A
	GFLOAD  // push float global A
	GISTORE // pop int into global A
	GFSTORE // pop float into global A

	// Integer arithmetic (operands popped right-to-left).
	IADD
	ISUB
	IMUL
	IDIV
	IREM
	INEG
	IAND
	IOR
	IXOR
	ISHL
	ISHR

	// Float arithmetic.
	FADD
	FSUB
	FMUL
	FDIV
	FNEG

	// Conversions.
	I2F
	F2I

	// Comparisons producing a branch. Pop b, then a; branch to A if
	// a OP b.
	IFICMPLT
	IFICMPGT
	IFICMPEQ
	IFICMPNE
	IFICMPLE
	IFICMPGE
	IFFCMPLT
	IFFCMPGT
	IFFCMPEQ
	IFFCMPNE
	IFFCMPLE
	IFFCMPGE
	GOTO // branch to A

	// Calls. CALL invokes function A; arguments are popped (last arg on
	// top) and the return value, if any, is pushed.
	CALL
	RET  // return void
	IRET // return int (popped)
	FRET // return float (popped)

	// Arrays.
	NEWARRI // pop length, push fresh int-array ref
	NEWARRF // pop length, push fresh float-array ref
	IALOAD  // pop index, ref; push int element
	IASTORE // pop value, index, ref
	FALOAD  // pop index, ref; push float element
	FASTORE // pop value, index, ref
	ALEN    // pop ref, push length

	// Stack manipulation.
	POP  // pop int-class value
	FPOP // pop float value
	DUP  // duplicate int-class top
	FDUP // duplicate float top

	// Runtime output (checksums and debugging).
	PRINTI // pop int, print
	PRINTF // pop float, print

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", ICONST: "iconst", FCONST: "fconst",
	ILOAD: "iload", FLOAD: "fload", ISTORE: "istore", FSTORE: "fstore",
	GILOAD: "giload", GFLOAD: "gfload", GISTORE: "gistore", GFSTORE: "gfstore",
	IADD: "iadd", ISUB: "isub", IMUL: "imul", IDIV: "idiv", IREM: "irem",
	INEG: "ineg", IAND: "iand", IOR: "ior", IXOR: "ixor", ISHL: "ishl", ISHR: "ishr",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	I2F: "i2f", F2I: "f2i",
	IFICMPLT: "ificmplt", IFICMPGT: "ificmpgt", IFICMPEQ: "ificmpeq",
	IFICMPNE: "ificmpne", IFICMPLE: "ificmple", IFICMPGE: "ificmpge",
	IFFCMPLT: "iffcmplt", IFFCMPGT: "iffcmpgt", IFFCMPEQ: "iffcmpeq",
	IFFCMPNE: "iffcmpne", IFFCMPLE: "iffcmple", IFFCMPGE: "iffcmpge",
	GOTO: "goto", CALL: "call", RET: "ret", IRET: "iret", FRET: "fret",
	NEWARRI: "newarri", NEWARRF: "newarrf",
	IALOAD: "iaload", IASTORE: "iastore", FALOAD: "faload", FASTORE: "fastore",
	ALEN: "alen", POP: "pop", FPOP: "fpop", DUP: "dup", FDUP: "fdup",
	PRINTI: "printi", PRINTF: "printf",
}

func (o Op) String() string {
	if o < numOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsBranch reports whether the opcode transfers control to Insn.A.
func (o Op) IsBranch() bool {
	return (o >= IFICMPLT && o <= GOTO)
}

// IsCondBranch reports whether the opcode is a two-way branch.
func (o Op) IsCondBranch() bool { return o.IsBranch() && o != GOTO }

// IsTerminator reports whether control never falls through the opcode.
func (o Op) IsTerminator() bool {
	switch o {
	case GOTO, RET, IRET, FRET:
		return true
	}
	return false
}

// Insn is one bytecode instruction. A is the operand (local slot, global
// slot, branch target, or callee index); I and F are immediates.
type Insn struct {
	Op Op
	A  int32
	I  int64
	F  float64
}

func (in Insn) String() string {
	switch in.Op {
	case ICONST:
		return fmt.Sprintf("iconst %d", in.I)
	case FCONST:
		return fmt.Sprintf("fconst %g", in.F)
	case ILOAD, FLOAD, ISTORE, FSTORE, GILOAD, GFLOAD, GISTORE, GFSTORE, CALL:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	default:
		if in.Op.IsBranch() {
			return fmt.Sprintf("%s @%d", in.Op, in.A)
		}
		return in.Op.String()
	}
}

// Type is a bytecode-level value type.
type Type uint8

const (
	TVoid Type = iota
	TInt
	TBool
	TFloat
	TIntArr
	TFloatArr
)

func (t Type) String() string {
	switch t {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TBool:
		return "bool"
	case TFloat:
		return "float"
	case TIntArr:
		return "int[]"
	case TFloatArr:
		return "float[]"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}
