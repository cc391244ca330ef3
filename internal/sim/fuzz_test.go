package sim

import (
	"math/rand"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// fuzzInput hands out a fuzz input's bytes one at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	v := (*in)[0]
	*in = (*in)[1:]
	return int(v)
}

// pick returns a number below n, or, for one byte value in 32, n itself:
// a target, callee, register or code just out of range.
func (in *fuzzInput) pick(n int) int {
	if v := in.next(); v < 248 {
		return v % n
	}
	return n
}

// fuzzProgram builds a small program and run configuration from data:
// up to three functions of up to four blockgen blocks each, with mutated
// operands and opcodes, calls inserted mid-block, and random terminators,
// targets, callees and condition codes, any of them out of range.
func fuzzProgram(data []byte) (*ir.Program, Config) {
	in := fuzzInput(data)
	gen := blockgen.DefaultConfig
	gen.MinLen, gen.MaxLen, gen.HazardFrac, gen.WithBranch = 0, 6, 0.2, false
	p := &ir.Program{}
	nFns := 1 + in.next()%3
	for fi := range nFns {
		nBlocks := 1 + in.next()%4
		f := &ir.Fn{Name: string(rune('a' + fi)), FrameSlots: in.next()%8 - 2, RetFloat: in.next()%2 == 1}
		for bi := range nBlocks {
			instrs := blockgen.Gen(rand.New(rand.NewSource(int64(in.next()))), gen)
			if in.next()%4 == 0 {
				x := &instrs[in.next()%len(instrs)]
				switch in.next() % 4 {
				case 0:
					if regs := [2][]ir.Reg{x.Uses, x.Defs}[in.next()%2]; len(regs) > 0 {
						r := &regs[in.next()%len(regs)]
						size := ir.NumGPR // as many as FPRs
						if r.Class == ir.ClassCond {
							size = ir.NumCond
						}
						r.N = int32(in.pick(size))
					}
				case 1:
					if len(x.Uses) > 0 {
						x.Uses = x.Uses[:len(x.Uses)-1]
					}
				case 2:
					x.Op = ir.Op(in.pick(ir.NumOps))
				default:
					x.Imm = int64(in.next() - 128)
				}
			}
			if in.next()%4 == 0 {
				at := in.next() % (len(instrs) + 1)
				call := ir.Instr{Op: ir.BL, Target: in.pick(nFns)}
				instrs = append(instrs[:at], append([]ir.Instr{call}, instrs[at:]...)...)
			}
			b := &ir.Block{ID: bi}
			target := func() int { return in.pick(nBlocks) }
			switch in.pick(4) {
			case 0:
				t := target()
				instrs = append(instrs, ir.Instr{Op: ir.B, Target: t})
				b.Succs = []int{t}
			case 1:
				t, fall := target(), target()
				instrs = append(instrs,
					ir.Instr{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{ir.GPR(16)}, Imm: int64(in.next() % 64)},
					ir.Instr{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: int64(in.pick(int(ir.CondGE) + 1)), Target: t})
				b.Succs = []int{t, fall}
			case 2:
				instrs = append(instrs, ir.Instr{Op: ir.BL, Target: in.pick(nFns)}, ir.Instr{Op: ir.BLR})
			case 3:
				instrs = append(instrs, ir.Instr{Op: ir.BLR})
			} // and none, rarely: control runs off the block's end
			b.Instrs = instrs
			f.Blocks = append(f.Blocks, b)
		}
		p.Fns = append(p.Fns, f)
	}
	cfg := Config{MemWords: 1 << 10, StepLimit: 1 + int64(in.next())*8}
	if in.next()%2 == 1 {
		cfg.Timed, cfg.Model = true, machine.Default().Model
	}
	return p, cfg
}

// FuzzRun runs programs built from fuzz input: whatever the input, a run
// must not panic, and it either returns a result or refuses with an
// error and no result.
func FuzzRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 0, 7, 0, 0, 3, 0, 255, 1})
	f.Add([]byte{2, 3, 2, 1, 9, 1, 2, 0, 5, 1, 2, 3, 1, 2, 1, 4, 2, 40, 0, 3, 4, 1, 2, 9, 0, 0, 2, 2, 30, 1})
	for seed := range int64(16) {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 64)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg := fuzzProgram(data)
		res, err := Run(p, cfg)
		if (err == nil) != (res != nil) {
			t.Fatalf("got result %v with error %v", res != nil, err)
		}
	})
}
