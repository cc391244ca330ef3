package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// unchained returns an issue state for m whose chained memo is stopped
// before a run decodes anything, so that it issues every segment record
// by record: decoding a record whose latency is below one cycle stops the
// memo, so the state first decodes a NOP under a copy of m in which NOP
// takes no cycles, then restores the copy's NOP timing.
func unchained(m *machine.Model) *machine.IssueState {
	cp := *m
	s := machine.NewIssueState(&cp)
	cp.Timing[ir.NOP].Latency = 0
	s.DecodeSegment([]ir.Instr{{Op: ir.NOP}})
	cp.Timing[ir.NOP] = m.Timing[ir.NOP]
	return s
}

// outcome is everything a run reports: its result or error, and the
// architectural state it ends in.
type outcome struct {
	res   *Result
	err   string
	final state
}

// runOutcome runs p in the form v and collects its outcome.
func runOutcome(p *ir.Program, cfg Config, v variant) outcome {
	var o outcome
	v.final = &o.final
	res, _, err := run(p, cfg, v)
	o.res = res
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// diff describes the first difference between two outcomes, or is "".
func (o outcome) diff(w outcome) string {
	switch {
	case o.err != w.err:
		return fmt.Sprintf("error %q, want %q", o.err, w.err)
	case !reflect.DeepEqual(o.res, w.res):
		return fmt.Sprintf("result %+v, want %+v", o.res, w.res)
	case !o.final.Equal(&w.final) || !slices.Equal(o.final.out, w.final.out):
		return "final states differ"
	}
	return ""
}

// FuzzRun runs programs built from fuzz input: whatever the input, a run
// must not panic, and it either returns a result or refuses with an
// error and no result. The run must also match, in its result (return
// value, counts, profiles, cycles), its error text and its final state,
// the same program run with every record decoded on its own (no fused
// pairs) and, when timed, issued record by record (no chained memo).
func FuzzRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 0, 7, 0, 0, 3, 0, 255, 1})
	f.Add([]byte{2, 3, 2, 1, 9, 1, 2, 0, 5, 1, 2, 3, 1, 2, 1, 4, 2, 40, 0, 3, 4, 1, 2, 9, 0, 0, 2, 2, 30, 1})
	// Timed runs whose step limit falls between the halves of a fused
	// pair.
	f.Add([]byte{0x36, 0x91, 0xcc, 0x57, 0x1c, 0xf7, 0x61, 0x40, 0x35, 0x3b, 0xb9, 0x7d, 0xa2, 0xcb, 0x7b, 0x7, 0x80, 0x59, 0x2d, 0xf9, 0x1, 0xad, 0x4b})
	f.Add([]byte{0x6a, 0x30, 0xa8, 0x6f, 0x21, 0xd5, 0xe7, 0xae, 0xaf, 0xf9, 0xb5, 0x13, 0xd, 0x14, 0x64, 0x8, 0xd5, 0xed, 0xcb, 0xe0, 0x4c, 0xc6, 0x88, 0x7e, 0xca, 0x50, 0xb8, 0x44, 0x54, 0x78, 0x46, 0x3b, 0x72, 0x37, 0xd0, 0xb3, 0xc7, 0x1e, 0xff, 0x7b, 0x18, 0xd5, 0x36, 0xee, 0xfd, 0x24, 0xcf, 0xab, 0xa, 0x20})
	// Runs, untimed and timed, that trap in the second half of a fused
	// pair.
	f.Add([]byte{0xf9, 0xc9, 0x26, 0x36, 0x7c, 0x18, 0x41, 0xf7, 0x1f, 0xcd, 0x14, 0xd4, 0x91, 0x58, 0x4a, 0x60, 0xd7, 0x9b, 0x3b, 0x5e, 0xc0, 0x21, 0xd})
	f.Add([]byte{0x7e, 0x84, 0xdd, 0x5, 0xdd, 0xd0, 0x42, 0x27, 0x9, 0x49, 0x7e, 0xed, 0x34, 0x45, 0x39, 0x66, 0x74, 0x99, 0x44, 0x2b, 0x3e, 0x97, 0xe, 0xdd, 0xee, 0x6a, 0x17, 0xa0, 0x5, 0xc4, 0x67, 0x7a, 0x90, 0x92})
	for seed := range int64(16) {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 64)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg := fuzzProgram(data)
		got := runOutcome(p, cfg, variant{})
		if (got.err == "") != (got.res != nil) {
			t.Fatalf("got result %v with error %q", got.res != nil, got.err)
		}
		if d := got.diff(runOutcome(p, cfg, variant{unfused: true})); d != "" {
			t.Fatalf("fused against unfused: %s", d)
		}
		if cfg.Timed {
			issue := unchained(cfg.Model)
			if d := got.diff(runOutcome(p, cfg, variant{issue: issue})); d != "" {
				t.Fatalf("chained against unchained: %s", d)
			}
			if nodes, _, _ := issue.ChainSize(); nodes != 0 {
				t.Fatalf("unchained run interned %d nodes", nodes)
			}
		}
	})
}
