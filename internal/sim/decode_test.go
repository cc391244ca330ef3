package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// TestMalformedProgramRefused runs one program per malformed shape the
// dispatch loop cannot execute. Each is refused when the run decodes it,
// timed or not, with an error and no result.
func TestMalformedProgramRefused(t *testing.T) {
	ret := &ir.Block{ID: 1, Instrs: []ir.Instr{{Op: ir.BLR}}}
	cases := []struct {
		name  string
		entry *ir.Block
		want  string
	}{
		{"branch target out of range", &ir.Block{Instrs: []ir.Instr{
			{Op: ir.B, Target: 7},
		}, Succs: []int{7}}, "branch target 7 out of range"},
		{"conditional branch target out of range", &ir.Block{Instrs: []ir.Instr{
			{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondEQ, Target: 7},
		}, Succs: []int{7, 1}}, "branch target 7 out of range"},
		{"callee out of range", &ir.Block{Instrs: []ir.Instr{
			{Op: ir.BL, Target: 3},
			{Op: ir.BLR},
		}}, "callee 3 out of range"},
		{"condition code out of range", &ir.Block{Instrs: []ir.Instr{
			{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondGE + 1, Target: 1},
		}, Succs: []int{1, 1}}, "bad condition code 6"},
		{"register not physical", &ir.Block{Instrs: []ir.Instr{
			{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(40)}},
			{Op: ir.BLR},
		}}, "operand vi40 is not a physical int register"},
		{"too few operands", &ir.Block{Instrs: []ir.Instr{
			{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}},
			{Op: ir.BLR},
		}}, "too few operands"},
	}
	for _, tc := range cases {
		for _, timed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/timed=%v", tc.name, timed), func(t *testing.T) {
				p := buildProg([]*ir.Block{tc.entry, ret})
				res, err := Run(p, Config{Timed: timed, Model: machine.Default().Model})
				if err == nil || res != nil {
					t.Fatalf("got %+v, %v; want no result and an error", res, err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("error %q does not mention %q", err, tc.want)
				}
			})
		}
	}
}

// TestMalformedSwapRefused hot-swaps in a function that fails to decode:
// the run fails, even though the function is never called.
func TestMalformedSwapRefused(t *testing.T) {
	p := spinProg()
	p.Fns = append(p.Fns, &ir.Fn{Name: "dead", Blocks: []*ir.Block{{Instrs: []ir.Instr{{Op: ir.BLR}}}}})
	bad := &ir.Fn{Name: "dead", Blocks: []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.MR, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.FPR(1)}},
		{Op: ir.BLR},
	}}}}
	res, err := Run(p, Config{StepLimit: 1 << 20, SampleEvery: 1000, OnSample: func(*Snapshot) []FnSwap {
		return []FnSwap{{Fn: 1, NewFn: bad}}
	}})
	if err == nil || res != nil || !strings.Contains(err.Error(), "not a physical int register") {
		t.Fatalf("got %+v, %v; want the swap's decode error", res, err)
	}
}

// callProg is main calling a leaf mid-block: the call splits main's entry
// block into two straight-line segments.
//
//	main b0: li r3, 1; li r4, 5; bl leaf; addi r3, r3, 1; addi r3, r3, 1; b b1
//	main b1: addi r3, r3, 10; blr
//	leaf b0: addi r3, r3, 100; blr
//
// Executed in order, instructions 1–3 are main's, 4–5 leaf's, 6–10
// main's; main returns 113.
func callProg() *ir.Program {
	addi := func(imm int64) ir.Instr {
		return ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: imm}
	}
	main := &ir.Fn{Name: "main", Blocks: []*ir.Block{
		{ID: 0, Instrs: []ir.Instr{
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 1},
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 5},
			{Op: ir.BL, Target: 1, Defs: []ir.Reg{ir.GPR(3)}},
			addi(1), addi(1),
			{Op: ir.B, Target: 1},
		}, Succs: []int{1}},
		{ID: 1, Instrs: []ir.Instr{addi(10), {Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}}}},
	}}
	leaf := &ir.Fn{Name: "leaf", Blocks: []*ir.Block{
		{ID: 0, Instrs: []ir.Instr{addi(100), {Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}}}},
	}}
	return &ir.Program{Fns: []*ir.Fn{main, leaf}}
}

// TestStepLimitPerSegment sets every step limit short of callProg's 10
// instructions: each run stops before instruction limit+1 and names the
// function that instruction belongs to, wherever the limit falls in its
// segment. The exact limit runs to completion.
func TestStepLimitPerSegment(t *testing.T) {
	fnOf := []string{1: "main", "main", "leaf", "leaf", "main", "main", "main", "main", "main"}
	for limit := int64(1); limit < 10; limit++ {
		_, err := Run(callProg(), Config{StepLimit: limit})
		want := fmt.Sprintf("sim: step limit (%d) exceeded in %s", limit, fnOf[limit])
		if err == nil || err.Error() != want {
			t.Errorf("limit %d: err %v, want %q", limit, err, want)
		}
	}
	res, err := Run(callProg(), Config{StepLimit: 10})
	if err != nil || res.Ret != 113 || res.DynInstrs != 10 {
		t.Fatalf("limit 10: %+v, %v; want ret 113 after 10 instructions", res, err)
	}
}

// TestTrapMidSegment traps in the middle of a segment, once in the entry
// block and once right after a call returns: the trap is reported, unless
// the step limit falls before the trapping instruction.
func TestTrapMidSegment(t *testing.T) {
	div0 := []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(5)}, Imm: 0},
		{Op: ir.DIVW, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3), ir.GPR(5)}},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 7},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}
	entry := buildProg([]*ir.Block{{Instrs: div0}})
	afterCall := callProg()
	b0 := afterCall.Fns[0].Blocks[0]
	b0.Instrs = append(b0.Instrs[:3], div0...)
	b0.Succs = nil
	for _, tc := range []struct {
		name       string
		p          *ir.Program
		trapAtInst int64
	}{
		{"entry", entry, 2},
		{"after call", afterCall, 7},
	} {
		_, err := Run(tc.p, Config{})
		var trap *trapError
		if !errors.As(err, &trap) || *trap != (trapError{Fn: "main", Kind: "divide by zero"}) {
			t.Errorf("%s: err %v, want a divide-by-zero trap in main", tc.name, err)
		}
		_, err = Run(tc.p, Config{StepLimit: tc.trapAtInst - 1})
		if want := fmt.Sprintf("sim: step limit (%d) exceeded in main", tc.trapAtInst-1); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", tc.name, err, want)
		}
	}
}

// TestFusedPairCutAndTrap runs fused pairs where they end early: a step
// limit between the halves of li+add runs the li alone, and a null check
// that traps after the load it is fused with leaves the load done. Each
// run must match the unfused run in error, counts and final state.
func TestFusedPairCutAndTrap(t *testing.T) {
	cut := buildProg([]*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 5},
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(4)}},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}})
	trap := buildProg([]*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(2)}, Imm: 0},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(6)}, Imm: 9},
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(6)}, Uses: []ir.Reg{ir.GPR(2)}, Imm: 1},
		{Op: ir.NULLCHECK, Uses: []ir.Reg{ir.GPR(6)}},
		{Op: ir.BLR},
	}}})
	m := machine.Default().Model
	for _, tc := range []struct {
		name string
		p    *ir.Program
		cfg  Config
		err  string
		reg  int
		want int64
	}{
		{"limit", cut, Config{StepLimit: 1, Timed: true, Model: m}, "sim: step limit (1) exceeded in main", 4, 5},
		{"trap", trap, Config{Timed: true, Model: m}, "sim: null pointer in main", 6, 0},
	} {
		got := runOutcome(tc.p, tc.cfg, variant{})
		if got.err != tc.err || got.final.Regs[tc.reg] != tc.want {
			t.Errorf("%s: error %q and r%d = %d, want %q and %d", tc.name, got.err, tc.reg, got.final.Regs[tc.reg], tc.err, tc.want)
		}
		if d := got.diff(runOutcome(tc.p, tc.cfg, variant{unfused: true})); d != "" {
			t.Errorf("%s: fused against unfused: %s", tc.name, d)
		}
	}
}

// TestExecBlockRefusesMalformed checks that the block oracle decodes
// through the same checks as a run.
func TestExecBlockRefusesMalformed(t *testing.T) {
	b := &ir.Block{Instrs: []ir.Instr{
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(1)}, Uses: []ir.Reg{ir.FPR(2), ir.FPR(33)}},
	}}
	if err := execBlock(newState(64), b); err == nil || !strings.Contains(err.Error(), "vf33") {
		t.Errorf("err %v, want a refusal naming vf33", err)
	}
	// Control instructions are no-ops: even a malformed branch is not
	// decoded.
	b.Instrs = []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 9},
		{Op: ir.B, Target: 99},
		{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1},
	}
	st := newState(64)
	if err := execBlock(st, b); err != nil || st.Regs[3] != 10 {
		t.Errorf("err %v, r3 %d; want r3 10", err, st.Regs[3])
	}
}
