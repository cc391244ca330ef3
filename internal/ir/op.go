package ir

import "fmt"

// Op is a machine-IR opcode.
type Op uint8

// The opcode set is PowerPC-flavoured. Arithmetic is three-address;
// memory operations address a word-granular simulated memory (addresses
// count 64-bit words). The runtime pseudo-ops (ALLOC, NULLCHECK,
// BOUNDSCHECK, YIELDPOINT, TSPOINT, RTPRINT*) model the Jikes RVM runtime
// services that give rise to the paper's hazard categories.
const (
	NOP Op = iota

	// Integer ALU (integer functional units).
	ADD   // Defs[0] = Uses[0] + Uses[1]
	SUB   // Defs[0] = Uses[0] - Uses[1]
	MULL  // Defs[0] = Uses[0] * Uses[1]
	DIVW  // Defs[0] = Uses[0] / Uses[1]; PEI (divide by zero)
	NEG   // Defs[0] = -Uses[0]
	AND   // Defs[0] = Uses[0] & Uses[1]
	OR    // Defs[0] = Uses[0] | Uses[1]
	XOR   // Defs[0] = Uses[0] ^ Uses[1]
	SLW   // Defs[0] = Uses[0] << Uses[1]
	SRAW  // Defs[0] = Uses[0] >> Uses[1] (arithmetic)
	ADDI  // Defs[0] = Uses[0] + Imm
	ANDI  // Defs[0] = Uses[0] & Imm
	ORI   // Defs[0] = Uses[0] | Imm
	XORI  // Defs[0] = Uses[0] ^ Imm
	SLWI  // Defs[0] = Uses[0] << Imm
	SRAWI // Defs[0] = Uses[0] >> Imm (arithmetic)
	LI    // Defs[0] = Imm
	MR    // Defs[0] = Uses[0]
	CMP   // Defs[0] (cond) = sign(Uses[0] - Uses[1])
	CMPI  // Defs[0] (cond) = sign(Uses[0] - Imm)

	// Floating point (floating-point functional unit).
	FADD // Defs[0] = Uses[0] + Uses[1]
	FSUB // Defs[0] = Uses[0] - Uses[1]
	FMUL // Defs[0] = Uses[0] * Uses[1]
	FDIV // Defs[0] = Uses[0] / Uses[1]
	FNEG // Defs[0] = -Uses[0]
	FMR  // Defs[0] = Uses[0]
	FCMP // Defs[0] (cond) = sign(Uses[0] - Uses[1])
	F2I  // Defs[0] (int) = int64(Uses[0]) (truncating)
	I2F  // Defs[0] (float) = float64(Uses[0])
	LFI  // Defs[0] = FImm

	// Memory (load/store unit). Addresses count words. Loads and stores
	// carrying a guard register in Uses depend on the check that defined
	// it and cannot be hoisted above that check.
	LD   // Defs[0] = mem[Uses[0] + Imm]
	LDX  // Defs[0] = mem[Uses[0] + Uses[1]]
	ST   // mem[Uses[1] + Imm] = Uses[0]
	STX  // mem[Uses[1] + Uses[2]] = Uses[0]
	LFD  // Defs[0] (float) = mem[Uses[0] + Imm]
	LFDX // Defs[0] (float) = mem[Uses[0] + Uses[1]]
	STFD // mem[Uses[1] + Imm] = Uses[0] (float)
	STFX // mem[Uses[1] + Uses[2]] = Uses[0] (float)

	// Control (branch unit). Branches terminate blocks.
	B   // unconditional branch to block Target
	BC  // conditional branch: if cond(Uses[0], Imm) then Target else fallthrough
	BL  // call function Target; GC point, PEI
	BLR // return

	// Runtime services (system unit) and hazards.
	ALLOC       // Defs[0] = address of fresh block of Uses[0]+1 words (word 0 = length); GC point
	NULLCHECK   // trap if Uses[0] == 0; Defs[0] = guard; PEI
	BOUNDSCHECK // trap if Uses[0] (index) not in [0, Uses[1] (length)); Defs[0] = guard; PEI
	YIELDPOINT  // thread yield point (loop back edges)
	TSPOINT     // thread-switch point (method prologues)
	RTPRINTI    // runtime call: print integer Uses[0]
	RTPRINTF    // runtime call: print float Uses[0]

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Cond codes for BC, stored in Instr.Imm.
const (
	CondLT int64 = iota
	CondGT
	CondEQ
	CondNE
	CondLE
	CondGE
)

// condString returns the mnemonic for a BC condition code.
func condString(c int64) string {
	switch c {
	case CondLT:
		return "lt"
	case CondGT:
		return "gt"
	case CondEQ:
		return "eq"
	case CondNE:
		return "ne"
	case CondLE:
		return "le"
	case CondGE:
		return "ge"
	}
	return fmt.Sprintf("cc%d", c)
}

// EvalCond applies a BC condition code to a compare result in {-1,0,1}.
func EvalCond(c int64, cmp int8) bool {
	switch c {
	case CondLT:
		return cmp < 0
	case CondGT:
		return cmp > 0
	case CondEQ:
		return cmp == 0
	case CondNE:
		return cmp != 0
	case CondLE:
		return cmp <= 0
	case CondGE:
		return cmp >= 0
	}
	panic(fmt.Sprintf("ir: bad condition code %d", c))
}

// Category is a bit set of the paper's instruction categories (Table 1).
// Categories deliberately overlap: a call is also a GC point and a PEI; a
// divide is integer-unit work and a PEI; and so on.
type Category uint16

const (
	catBranch Category = 1 << iota
	catCall
	CatLoad
	CatStore
	catReturn
	catIntFU
	catFloatFU
	catSystemFU
	CatPEI
	CatGCPoint
	CatTSPoint
	CatYieldPoint
)

// NumCategories is the number of distinct instruction categories.
const NumCategories = 12

// CategoryNames lists category names in bit order.
var CategoryNames = [NumCategories]string{
	"branch", "call", "load", "store", "return",
	"integer", "float", "system", "pei", "gcpoint", "tspoint", "yieldpoint",
}

// FU identifies the functional-unit class an opcode executes on. The
// MPC7410 model in internal/machine maps these classes to concrete units
// (two dissimilar integer units, one each of the others).
type FU uint8

const (
	fuNone FU = iota
	FUInt
	FUFloat
	FULoadStore
	FUBranch
	FUSystem
)

func (f FU) String() string {
	switch f {
	case fuNone:
		return "none"
	case FUInt:
		return "int"
	case FUFloat:
		return "float"
	case FULoadStore:
		return "loadstore"
	case FUBranch:
		return "branch"
	case FUSystem:
		return "system"
	}
	return fmt.Sprintf("FU(%d)", uint8(f))
}

// opInfo is the static property table for an opcode.
type opInfo struct {
	name string
	fu   FU
	cats Category
}

var opTable = [NumOps]opInfo{
	NOP:   {"nop", fuNone, 0},
	ADD:   {"add", FUInt, catIntFU},
	SUB:   {"sub", FUInt, catIntFU},
	MULL:  {"mull", FUInt, catIntFU},
	DIVW:  {"divw", FUInt, catIntFU | CatPEI},
	NEG:   {"neg", FUInt, catIntFU},
	AND:   {"and", FUInt, catIntFU},
	OR:    {"or", FUInt, catIntFU},
	XOR:   {"xor", FUInt, catIntFU},
	SLW:   {"slw", FUInt, catIntFU},
	SRAW:  {"sraw", FUInt, catIntFU},
	ADDI:  {"addi", FUInt, catIntFU},
	ANDI:  {"andi", FUInt, catIntFU},
	ORI:   {"ori", FUInt, catIntFU},
	XORI:  {"xori", FUInt, catIntFU},
	SLWI:  {"slwi", FUInt, catIntFU},
	SRAWI: {"srawi", FUInt, catIntFU},
	LI:    {"li", FUInt, catIntFU},
	MR:    {"mr", FUInt, catIntFU},
	CMP:   {"cmp", FUInt, catIntFU},
	CMPI:  {"cmpi", FUInt, catIntFU},

	FADD: {"fadd", FUFloat, catFloatFU},
	FSUB: {"fsub", FUFloat, catFloatFU},
	FMUL: {"fmul", FUFloat, catFloatFU},
	FDIV: {"fdiv", FUFloat, catFloatFU},
	FNEG: {"fneg", FUFloat, catFloatFU},
	FMR:  {"fmr", FUFloat, catFloatFU},
	FCMP: {"fcmp", FUFloat, catFloatFU},
	F2I:  {"f2i", FUFloat, catFloatFU},
	I2F:  {"i2f", FUFloat, catFloatFU},
	LFI:  {"lfi", FUFloat, catFloatFU},

	LD:   {"ld", FULoadStore, CatLoad},
	LDX:  {"ldx", FULoadStore, CatLoad},
	ST:   {"st", FULoadStore, CatStore},
	STX:  {"stx", FULoadStore, CatStore},
	LFD:  {"lfd", FULoadStore, CatLoad},
	LFDX: {"lfdx", FULoadStore, CatLoad},
	STFD: {"stfd", FULoadStore, CatStore},
	STFX: {"stfx", FULoadStore, CatStore},

	B:   {"b", FUBranch, catBranch},
	BC:  {"bc", FUBranch, catBranch},
	BL:  {"bl", FUBranch, catBranch | catCall | CatGCPoint | CatPEI},
	BLR: {"blr", FUBranch, catBranch | catReturn},

	ALLOC:       {"alloc", FUSystem, catSystemFU | CatGCPoint},
	NULLCHECK:   {"nullcheck", FUInt, catIntFU | CatPEI},
	BOUNDSCHECK: {"boundscheck", FUInt, catIntFU | CatPEI},
	YIELDPOINT:  {"yieldpoint", FUSystem, catSystemFU | CatYieldPoint},
	TSPOINT:     {"tspoint", FUSystem, catSystemFU | CatTSPoint},
	RTPRINTI:    {"rtprinti", FUSystem, catSystemFU | catCall | CatGCPoint},
	RTPRINTF:    {"rtprintf", FUSystem, catSystemFU | catCall | CatGCPoint},
}

func (o Op) String() string {
	if int(o) < NumOps && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// FU returns the functional-unit class the opcode executes on.
func (o Op) FU() FU { return opTable[o].fu }

// Categories returns the (possibly overlapping) Table-1 categories of the
// opcode.
func (o Op) Categories() Category { return opTable[o].cats }

// Is reports whether the opcode belongs to category c.
func (o Op) Is(c Category) bool { return opTable[o].cats&c != 0 }

// IsBranchOp reports whether the opcode is block-terminating control flow.
func (o Op) IsBranchOp() bool { return o.Is(catBranch) }

// IsMemOp reports whether the opcode reads or writes memory.
func (o Op) IsMemOp() bool { return o.Is(CatLoad | CatStore) }

// IsCallLike reports whether the opcode transfers control to the runtime or
// another function (full scheduling barrier for memory).
func (o Op) IsCallLike() bool { return o.Is(catCall) || o == ALLOC }

// IsHazard reports whether the opcode is one of the paper's hazard kinds
// (PEI, GC point, thread-switch point, yield point): "possible but unusual
// branches, which disallow reordering".
func (o Op) IsHazard() bool {
	return o.Is(CatPEI | CatGCPoint | CatTSPoint | CatYieldPoint)
}
