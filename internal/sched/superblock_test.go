package sched

import (
	"testing"

	"schedfilter/internal/ir"
)

// diamond builds a function shaped like:
//
//	b0: ... bc -> b2 (taken, cold) else b1
//	b1: hot straight-line        -> b3
//	b2: cold                     -> b3
//	b3: ... blr
func diamond() *ir.Fn {
	gpr := ir.GPR
	b0 := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{gpr(10)}, Imm: 100},
		{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{gpr(10)}, Imm: 0},
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondLT, Target: 2},
	}, Succs: []int{2, 1}}
	b1 := &ir.Block{ID: 1, Instrs: []ir.Instr{
		{Op: ir.ADDI, Defs: []ir.Reg{gpr(11)}, Uses: []ir.Reg{gpr(10)}, Imm: 1},
		{Op: ir.ADDI, Defs: []ir.Reg{gpr(12)}, Uses: []ir.Reg{gpr(11)}, Imm: 2},
		{Op: ir.B, Target: 3},
	}, Succs: []int{3}}
	b2 := &ir.Block{ID: 2, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{gpr(12)}, Imm: 7},
		{Op: ir.B, Target: 3},
	}, Succs: []int{3}}
	b3 := &ir.Block{ID: 3, Instrs: []ir.Instr{
		{Op: ir.MR, Defs: []ir.Reg{gpr(3)}, Uses: []ir.Reg{gpr(12)}},
		{Op: ir.BLR, Uses: []ir.Reg{gpr(3)}},
	}}
	return &ir.Fn{Name: "diamond", Blocks: []*ir.Block{b0, b1, b2, b3}}
}

func diamondProfile() []BlockProfile {
	return []BlockProfile{
		{Exec: 100, Taken: 3}, // b0: rarely takes the cold edge
		{Exec: 97},            // b1 hot
		{Exec: 3},             // b2 cold
		{Exec: 100},           // b3 join
	}
}

func TestFormTracesFollowsHotPath(t *testing.T) {
	fn := diamond()
	traces := FormTraces(fn, diamondProfile())
	if len(traces) == 0 {
		t.Fatal("no traces formed")
	}
	tr := traces[0]
	if tr[0] != 0 || tr[1] != 1 {
		t.Errorf("trace %v should start 0 -> 1 (the hot path)", tr)
	}
	for _, b := range tr {
		if b == 2 {
			t.Error("cold block 2 ended up in the hot trace")
		}
	}
}

func TestFormTracesRespectsBias(t *testing.T) {
	fn := diamond()
	prof := diamondProfile()
	prof[0].Taken = 45 // 55/45 split: below the 0.7 bias
	prof[1].Exec = 55
	prof[2].Exec = 45
	traces := FormTraces(fn, prof)
	for _, tr := range traces {
		if tr[0] == 0 && len(tr) > 1 {
			t.Errorf("trace %v extended through a 55/45 branch", tr)
		}
	}
}

// Formation never revisits a block, and keeps only traces of two or
// more blocks: the cold block 2 seeds a trace that cannot grow, since
// its only successor is already in the hot trace.
func TestFormTracesStopsAtVisited(t *testing.T) {
	fn := diamond()
	traces := FormTraces(fn, diamondProfile())
	if len(traces) == 0 {
		t.Fatal("no traces formed")
	}
	seen := map[int]bool{}
	for _, tr := range traces {
		if len(tr) < 2 {
			t.Errorf("trace %v has %d blocks, want >= 2", tr, len(tr))
		}
		for _, b := range tr {
			if seen[b] {
				t.Fatalf("block %d appears in two traces", b)
			}
			seen[b] = true
		}
	}
	if seen[2] {
		t.Error("cold block 2 kept as a one-block trace")
	}
}

func TestTailDuplicateRemovesSideEntrances(t *testing.T) {
	fn := diamond()
	trace := []int{0, 1, 3} // b3 has a side entrance from b2
	n := TailDuplicate(fn, trace)
	if n != 1 {
		t.Fatalf("duplicated %d blocks, want 1 (b3)", n)
	}
	if len(fn.Blocks) != 5 {
		t.Fatalf("expected 5 blocks after duplication, got %d", len(fn.Blocks))
	}
	// b2 must now jump to the copy, not to b3.
	if fn.Blocks[2].Succs[0] != 4 {
		t.Errorf("side predecessor still targets the trace: succs %v", fn.Blocks[2].Succs)
	}
	if fn.Blocks[2].Instrs[len(fn.Blocks[2].Instrs)-1].Target != 4 {
		t.Error("branch target not rewritten with the successor")
	}
	// The trace-internal edge b1 -> b3 must be untouched.
	if fn.Blocks[1].Succs[0] != 3 {
		t.Errorf("in-trace edge was rewritten: %v", fn.Blocks[1].Succs)
	}
	// The copy is a faithful clone of b3.
	if fn.Blocks[4].Instrs[0].Op != ir.MR {
		t.Error("copy does not match the original block")
	}
	// The trace now has no side entrances.
	preds := predecessors(fn)
	if len(preds[3]) != 1 || preds[3][0] != 1 {
		t.Errorf("b3 preds = %v, want [1]", preds[3])
	}
}

func TestTailDuplicateNoopWithoutSideEntrances(t *testing.T) {
	fn := diamond()
	if n := TailDuplicate(fn, []int{0, 1}); n != 0 {
		t.Errorf("duplicated %d blocks for a clean trace", n)
	}
	if len(fn.Blocks) != 4 {
		t.Error("blocks appended unnecessarily")
	}
}

func TestLivenessDiamond(t *testing.T) {
	fn := diamond()
	liveIn, liveOut := Liveness(fn)
	// r12 is written on both sides and read in b3: live into b1, b2? No:
	// b1 and b2 *define* r12, so it is not live into them; it is live
	// into b3 and live out of b1/b2.
	if !liveIn[3].Has(ir.GPR(12)) {
		t.Error("r12 must be live into the join block")
	}
	if !liveOut[1].Has(ir.GPR(12)) || !liveOut[2].Has(ir.GPR(12)) {
		t.Error("r12 must be live out of both arms")
	}
	// r10 is read by b1 (addi) so it is live out of b0.
	if !liveOut[0].Has(ir.GPR(10)) {
		t.Error("r10 must be live out of the entry block")
	}
	// r3 is consumed by BLR within b3: not live in anywhere else.
	if liveIn[0].Has(ir.GPR(3)) {
		t.Error("r3 should not be live at entry")
	}
}

func TestSuperblockSchedulingMovesOnlySafeCode(t *testing.T) {
	// Trace [b0, b1] where b0 ends with a BC whose exit (b2) READS r20:
	// an instruction in b1 defining r20 must not hoist above the branch,
	// while one defining the dead r21 may.
	gpr := ir.GPR
	b0 := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{gpr(10)}, Imm: 0},
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondLT, Target: 2},
	}, Succs: []int{2, 1}}
	b1 := &ir.Block{ID: 1, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{gpr(20)}, Imm: 5}, // unsafe to hoist: r20 live on exit
		{Op: ir.LI, Defs: []ir.Reg{gpr(21)}, Imm: 6}, // safe to hoist: r21 dead on exit
		{Op: ir.ADD, Defs: []ir.Reg{gpr(3)}, Uses: []ir.Reg{gpr(20), gpr(21)}},
		{Op: ir.BLR, Uses: []ir.Reg{gpr(3)}},
	}}
	b2 := &ir.Block{ID: 2, Instrs: []ir.Instr{
		{Op: ir.MR, Defs: []ir.Reg{gpr(3)}, Uses: []ir.Reg{gpr(20)}},
		{Op: ir.BLR, Uses: []ir.Reg{gpr(3)}},
	}}
	fn := &ir.Fn{Name: "t", Blocks: []*ir.Block{b0, b1, b2}}

	liveIn, _ := Liveness(fn)
	m := model()
	scheduleTrace(m, fn, []int{0, 1}, liveIn, NewScratch())

	// Block 0 must still end with the BC; block 1 with BLR.
	t0 := fn.Blocks[0].Instrs[len(fn.Blocks[0].Instrs)-1].Op
	t1 := fn.Blocks[1].Instrs[len(fn.Blocks[1].Instrs)-1].Op
	if t0 != ir.BC || t1 != ir.BLR {
		t.Fatalf("terminators corrupted: %v, %v", t0, t1)
	}
	// The unsafe def (r20) must remain in block 1.
	for i := range fn.Blocks[0].Instrs {
		for _, d := range fn.Blocks[0].Instrs[i].Defs {
			if d == gpr(20) {
				t.Error("r20 def hoisted above a branch whose exit reads it")
			}
		}
	}
	// Instruction population is preserved across the trace.
	total := len(fn.Blocks[0].Instrs) + len(fn.Blocks[1].Instrs)
	if total != 6 {
		t.Errorf("trace instruction count changed: %d, want 6", total)
	}
}

func TestScheduleSuperblocksEndToEnd(t *testing.T) {
	fn := diamond()
	st := ScheduleSuperblocks(model(), fn, diamondProfile(), nil)
	if st.Traces == 0 {
		t.Fatal("no traces formed on the diamond")
	}
	if st.TraceBlocks+st.LocalBlocks != len(fn.Blocks) {
		t.Errorf("stats do not cover all blocks: %+v vs %d blocks", st, len(fn.Blocks))
	}
	// Every block must still end in a terminator.
	for _, b := range fn.Blocks {
		if len(b.Instrs) == 0 || !isTerminator(b.Instrs[len(b.Instrs)-1].Op) {
			t.Errorf("block %d lost its terminator", b.ID)
		}
	}
}
