package ir

import (
	"strings"
	"testing"
)

func TestOpTableComplete(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestCategoryOverlap(t *testing.T) {
	// The paper's categories deliberately overlap: a call is also a GC
	// point and a PEI; a divide is integer work and a PEI.
	if !BL.Is(catCall) || !BL.Is(CatGCPoint) || !BL.Is(CatPEI) || !BL.Is(catBranch) {
		t.Errorf("BL categories = %b, want call|gcpoint|pei|branch", BL.Categories())
	}
	if !DIVW.Is(catIntFU) || !DIVW.Is(CatPEI) {
		t.Errorf("DIVW categories = %b, want integer|pei", DIVW.Categories())
	}
	if !ALLOC.Is(catSystemFU) || !ALLOC.Is(CatGCPoint) {
		t.Errorf("ALLOC categories = %b, want system|gcpoint", ALLOC.Categories())
	}
}

func TestFUAssignments(t *testing.T) {
	cases := []struct {
		op Op
		fu FU
	}{
		{ADD, FUInt}, {MULL, FUInt}, {DIVW, FUInt},
		{FADD, FUFloat}, {FDIV, FUFloat},
		{LD, FULoadStore}, {ST, FULoadStore}, {LFDX, FULoadStore},
		{B, FUBranch}, {BC, FUBranch}, {BL, FUBranch}, {BLR, FUBranch},
		{ALLOC, FUSystem}, {YIELDPOINT, FUSystem}, {TSPOINT, FUSystem},
		{NULLCHECK, FUInt}, {BOUNDSCHECK, FUInt},
	}
	for _, c := range cases {
		if got := c.op.FU(); got != c.fu {
			t.Errorf("%v.FU() = %v, want %v", c.op, got, c.fu)
		}
	}
}

func TestLoadStoreCategories(t *testing.T) {
	for _, op := range []Op{LD, LDX, LFD, LFDX} {
		if !op.Is(CatLoad) || op.Is(CatStore) {
			t.Errorf("%v should be load-only", op)
		}
	}
	for _, op := range []Op{ST, STX, STFD, STFX} {
		if !op.Is(CatStore) || op.Is(CatLoad) {
			t.Errorf("%v should be store-only", op)
		}
	}
}

func TestHazardOps(t *testing.T) {
	for _, op := range []Op{NULLCHECK, BOUNDSCHECK, DIVW, BL, ALLOC, YIELDPOINT, TSPOINT} {
		if !op.IsHazard() {
			t.Errorf("%v should be a hazard", op)
		}
	}
	for _, op := range []Op{ADD, FMUL, LD, ST, B, BC} {
		if op.IsHazard() {
			t.Errorf("%v should not be a hazard", op)
		}
	}
}

func TestRegPhysVirtual(t *testing.T) {
	if !GPR(0).IsPhys() || !GPR(31).IsPhys() || GPR(32).IsPhys() {
		t.Error("GPR physical boundary wrong")
	}
	if !FPR(31).IsPhys() || FPR(32).IsPhys() {
		t.Error("FPR physical boundary wrong")
	}
	if !CR(7).IsPhys() || CR(8).IsPhys() {
		t.Error("CR physical boundary wrong")
	}
	if Guard(0).IsPhys() {
		t.Error("guards must never be physical")
	}
}

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{GPR(3), "r3"}, {GPR(40), "vi40"},
		{FPR(1), "f1"}, {FPR(99), "vf99"},
		{CR(0), "cr0"}, {Guard(2), "g2"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestEvalCond(t *testing.T) {
	cases := []struct {
		code int64
		cmp  int8
		want bool
	}{
		{CondLT, -1, true}, {CondLT, 0, false}, {CondLT, 1, false},
		{CondGT, 1, true}, {CondGT, 0, false},
		{CondEQ, 0, true}, {CondEQ, -1, false},
		{CondNE, 1, true}, {CondNE, 0, false},
		{CondLE, 0, true}, {CondLE, -1, true}, {CondLE, 1, false},
		{CondGE, 0, true}, {CondGE, 1, true}, {CondGE, -1, false},
	}
	for _, c := range cases {
		if got := EvalCond(c.code, c.cmp); got != c.want {
			t.Errorf("EvalCond(%s, %d) = %v, want %v", condString(c.code), c.cmp, got, c.want)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: ADD, Defs: []Reg{GPR(3)}, Uses: []Reg{GPR(4), GPR(5)}}
	if got := in.String(); got != "add r3, r4, r5" {
		t.Errorf("got %q", got)
	}
	bc := Instr{Op: BC, Uses: []Reg{CR(0)}, Imm: CondLT, Target: 7}
	if got := bc.String(); got != "bc cr0, lt, b7" {
		t.Errorf("got %q", got)
	}
	li := Instr{Op: LI, Defs: []Reg{GPR(9)}, Imm: 42}
	if got := li.String(); got != "li r9, 42" {
		t.Errorf("got %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	b := &Block{ID: 1, Instrs: []Instr{
		{Op: ADD, Defs: []Reg{GPR(3)}, Uses: []Reg{GPR(4), GPR(5)}},
	}, Succs: []int{2}}
	c := b.Clone()
	c.Instrs[0].Defs[0] = GPR(9)
	c.Succs[0] = 5
	if b.Instrs[0].Defs[0] != GPR(3) || b.Succs[0] != 2 {
		t.Error("Clone shares storage with original")
	}
}

func TestProgramAccounting(t *testing.T) {
	p := &Program{Fns: []*Fn{
		{Name: "a", Blocks: []*Block{{Instrs: make([]Instr, 3)}, {Instrs: make([]Instr, 2)}}},
		{Name: "b", Blocks: []*Block{{Instrs: make([]Instr, 5)}}},
	}}
	if p.NumBlocks() != 3 {
		t.Errorf("NumBlocks = %d, want 3", p.NumBlocks())
	}
	if p.NumInstrs() != 10 {
		t.Errorf("NumInstrs = %d, want 10", p.NumInstrs())
	}
	if p.FnByName("b") == nil || p.FnByName("zzz") != nil {
		t.Error("FnByName lookup wrong")
	}
}
