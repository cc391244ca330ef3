// Package blockgen generates pseudo-random but well-formed basic blocks.
// It exists for property-based testing (scheduling must preserve semantics
// and dependence order on any block) and for micro-benchmarks that need a
// controllable population of blocks with varying instruction mixes.
package blockgen

import (
	"math/rand"

	"schedfilter/internal/ir"
)

// Config controls the shape of generated blocks.
type Config struct {
	// MinLen and MaxLen bound the number of non-terminator instructions.
	MinLen, MaxLen int
	// FloatFrac is the approximate fraction of floating-point ALU ops.
	FloatFrac float64
	// MemFrac is the approximate fraction of loads/stores.
	MemFrac float64
	// HazardFrac is the approximate fraction of hazard/runtime ops
	// (checks, yield points, allocations).
	HazardFrac float64
	// WithBranch appends a conditional branch terminator.
	WithBranch bool
	// MemWords is the size of the scratch memory region the block's
	// loads and stores stay within (addresses [scratchBase,
	// scratchBase+MemWords)). Must be >= 1 when MemFrac > 0.
	MemWords int64
}

// DefaultConfig is a balanced mix resembling JIT-compiled code.
var DefaultConfig = Config{
	MinLen:     2,
	MaxLen:     40,
	FloatFrac:  0.25,
	MemFrac:    0.3,
	HazardFrac: 0.08,
	WithBranch: true,
	MemWords:   16,
}

// scratchBase is the word address the generator assumes a valid scratch
// buffer lives at; executors must map [scratchBase, scratchBase+MemWords).
const scratchBase = 8

// Gen produces one block. All register operands are physical; integer
// registers r16..r23 and float registers f16..f23 form the working pool,
// r15 holds the scratch base address (the first generated instruction sets
// it), and cr0..cr3 receive compare results. Generated loads and stores
// address only the scratch region, so the block can be executed from any
// machine state whose memory covers it.
func Gen(r *rand.Rand, cfg Config) []ir.Instr {
	if cfg.MaxLen < cfg.MinLen {
		cfg.MaxLen = cfg.MinLen
	}
	n := cfg.MinLen
	if cfg.MaxLen > cfg.MinLen {
		n += r.Intn(cfg.MaxLen - cfg.MinLen + 1)
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1
	}

	intPool := make([]ir.Reg, 8)
	fpPool := make([]ir.Reg, 8)
	for i := range intPool {
		intPool[i] = ir.GPR(16 + i)
		fpPool[i] = ir.FPR(16 + i)
	}
	base := ir.GPR(15)

	var out []ir.Instr
	out = append(out, ir.Instr{Op: ir.LI, Defs: []ir.Reg{base}, Imm: scratchBase})
	// Seed a few values so early uses are defined regardless of the
	// incoming machine state.
	out = append(out,
		ir.Instr{Op: ir.LI, Defs: []ir.Reg{intPool[0]}, Imm: int64(r.Intn(64) + 1)},
		ir.Instr{Op: ir.LI, Defs: []ir.Reg{intPool[1]}, Imm: int64(r.Intn(64) + 1)},
		ir.Instr{Op: ir.LFI, Defs: []ir.Reg{fpPool[0]}, FImm: r.Float64()*8 + 0.5},
		ir.Instr{Op: ir.LFI, Defs: []ir.Reg{fpPool[1]}, FImm: r.Float64()*8 + 0.5},
	)

	ri := func(pool []ir.Reg) ir.Reg { return pool[r.Intn(len(pool))] }
	off := func() int64 { return int64(r.Int63n(cfg.MemWords)) }

	guardN := 0
	for len(out) < n+5 {
		x := r.Float64()
		switch {
		case x < cfg.MemFrac/2: // load
			if r.Intn(2) == 0 {
				out = append(out, ir.Instr{Op: ir.LD, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{base}, Imm: off()})
			} else {
				out = append(out, ir.Instr{Op: ir.LFD, Defs: []ir.Reg{ri(fpPool)}, Uses: []ir.Reg{base}, Imm: off()})
			}
		case x < cfg.MemFrac: // store
			if r.Intn(2) == 0 {
				out = append(out, ir.Instr{Op: ir.ST, Uses: []ir.Reg{ri(intPool), base}, Imm: off()})
			} else {
				out = append(out, ir.Instr{Op: ir.STFD, Uses: []ir.Reg{ri(fpPool), base}, Imm: off()})
			}
		case x < cfg.MemFrac+cfg.HazardFrac: // hazard
			switch r.Intn(3) {
			case 0:
				g := ir.Guard(guardN)
				guardN++
				out = append(out,
					ir.Instr{Op: ir.NULLCHECK, Defs: []ir.Reg{g}, Uses: []ir.Reg{base}},
					ir.Instr{Op: ir.LD, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{base, g}, Imm: off()},
				)
			case 1:
				out = append(out, ir.Instr{Op: ir.YIELDPOINT})
			default:
				out = append(out, ir.Instr{Op: ir.TSPOINT})
			}
		case x < cfg.MemFrac+cfg.HazardFrac+cfg.FloatFrac: // float ALU
			ops := []ir.Op{ir.FADD, ir.FSUB, ir.FMUL, ir.FADD, ir.FMUL}
			out = append(out, ir.Instr{
				Op:   ops[r.Intn(len(ops))],
				Defs: []ir.Reg{ri(fpPool)},
				Uses: []ir.Reg{ri(fpPool), ri(fpPool)},
			})
		default: // int ALU
			switch r.Intn(6) {
			case 0:
				out = append(out, ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{ri(intPool)}, Imm: int64(r.Intn(16))})
			case 1:
				out = append(out, ir.Instr{Op: ir.MULL, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{ri(intPool), ri(intPool)}})
			case 2:
				out = append(out, ir.Instr{Op: ir.XOR, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{ri(intPool), ri(intPool)}})
			case 3:
				out = append(out, ir.Instr{Op: ir.SLWI, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{ri(intPool)}, Imm: int64(r.Intn(5))})
			case 4:
				out = append(out, ir.Instr{Op: ir.SUB, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{ri(intPool), ri(intPool)}})
			default:
				out = append(out, ir.Instr{Op: ir.ADD, Defs: []ir.Reg{ri(intPool)}, Uses: []ir.Reg{ri(intPool), ri(intPool)}})
			}
		}
	}

	if cfg.WithBranch {
		cr := ir.CR(r.Intn(4))
		out = append(out,
			ir.Instr{Op: ir.CMPI, Defs: []ir.Reg{cr}, Uses: []ir.Reg{ri(intPool)}, Imm: 0},
			ir.Instr{Op: ir.BC, Uses: []ir.Reg{cr}, Imm: ir.CondGT, Target: 1},
		)
	}
	return out
}

// GenBlock wraps Gen in an ir.Block.
func GenBlock(r *rand.Rand, cfg Config, id int) *ir.Block {
	return &ir.Block{ID: id, Instrs: Gen(r, cfg)}
}
