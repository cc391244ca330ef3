package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
)

func model() *Model { return newMPC7410() }

func TestTimingTableComplete(t *testing.T) {
	m := model()
	for op := ir.Op(1); int(op) < ir.NumOps; op++ {
		if m.Timing[op].Latency < 1 {
			t.Errorf("%v latency %d < 1", op, m.Timing[op].Latency)
		}
		if m.UnitsFor(op) == nil && op != ir.NOP {
			t.Errorf("%v has no unit", op)
		}
	}
}

func TestComplexIntOnlyIU1(t *testing.T) {
	m := model()
	for _, op := range []ir.Op{ir.MULL, ir.DIVW} {
		units := m.UnitsFor(op)
		if len(units) != 1 || units[0] != iu1 {
			t.Errorf("%v units = %v, want [IU1]", op, units)
		}
	}
	units := m.UnitsFor(ir.ADD)
	if len(units) != 2 {
		t.Errorf("simple int op should use either integer unit, got %v", units)
	}
}

func seq(ins ...ir.Instr) []ir.Instr { return ins }

func TestEstimateEmpty(t *testing.T) {
	if got := EstimateCost(model(), nil); got != 0 {
		t.Errorf("empty block cost = %d, want 0", got)
	}
}

func TestEstimateDependentChain(t *testing.T) {
	// r3 = r3+1 repeated n times: fully serial, 1-cycle latency each.
	n := 10
	var ins []ir.Instr
	for i := 0; i < n; i++ {
		ins = append(ins, ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1})
	}
	if got := EstimateCost(model(), ins); got != n {
		t.Errorf("serial chain of %d adds = %d cycles, want %d", n, got, n)
	}
}

func TestEstimateIndependentPairsDualIssue(t *testing.T) {
	// 8 independent adds on distinct registers: 2 integer units and
	// 2-wide issue → 4 issue cycles, last completes at cycle 5 (issue
	// cycle 3 + latency 1 => makespan 4).
	var ins []ir.Instr
	for i := 0; i < 8; i++ {
		r := ir.GPR(10 + i)
		ins = append(ins, ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{r}, Uses: []ir.Reg{r}, Imm: 1})
	}
	if got := EstimateCost(model(), ins); got != 4 {
		t.Errorf("8 independent adds = %d cycles, want 4", got)
	}
}

func TestEstimateLoadLatency(t *testing.T) {
	m := model()
	ins := seq(
		ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 0},
		ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1},
	)
	// Load issues cycle 0 (latency 2), dependent add issues cycle 2,
	// completes cycle 3.
	if got := EstimateCost(m, ins); got != 3 {
		t.Errorf("load+use = %d cycles, want 3", got)
	}
}

func TestEstimateDivideNotPipelined(t *testing.T) {
	m := model()
	div := func(d, a, b int) ir.Instr {
		return ir.Instr{Op: ir.DIVW, Defs: []ir.Reg{ir.GPR(d)}, Uses: []ir.Reg{ir.GPR(a), ir.GPR(b)}}
	}
	one := EstimateCost(m, seq(div(3, 4, 5)))
	two := EstimateCost(m, seq(div(3, 4, 5), div(6, 7, 8)))
	if two < 2*one {
		t.Errorf("two independent divides = %d cycles, want >= %d (unit not pipelined)", two, 2*one)
	}
}

func TestEstimateFloatPipelined(t *testing.T) {
	m := model()
	fadd := func(d, a, b int) ir.Instr {
		return ir.Instr{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(d)}, Uses: []ir.Reg{ir.FPR(a), ir.FPR(b)}}
	}
	// Four independent fadds on one pipelined FPU: issue cycles
	// 0,1,2,3, last completes at 3+3=6.
	got := EstimateCost(m, seq(fadd(2, 3, 4), fadd(5, 6, 7), fadd(8, 9, 10), fadd(11, 12, 13)))
	if got != 6 {
		t.Errorf("four independent fadds = %d cycles, want 6", got)
	}
}

func TestBranchHasOwnSlot(t *testing.T) {
	m := model()
	ins := seq(
		ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1},
		ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 1},
		ir.Instr{Op: ir.B, Target: 1},
	)
	// Both adds dual-issue at cycle 0; the branch issues at cycle 0 too
	// because branches have a separate slot.
	s := NewIssueState(m)
	for i := range ins {
		s.Issue(&ins[i])
	}
	if s.Cycle() != 0 {
		t.Errorf("branch did not co-issue: final issue cycle %d, want 0", s.Cycle())
	}
}

func TestIssueWidthEnforced(t *testing.T) {
	m := model()
	s := NewIssueState(m)
	a := ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 1}
	b := ir.Instr{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(3)}, Uses: []ir.Reg{ir.FPR(4), ir.FPR(5)}}
	c := ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(6)}, Imm: 0}
	if got := s.Issue(&a); got != 0 {
		t.Fatalf("first issue at %d", got)
	}
	if got := s.Issue(&b); got != 0 {
		t.Fatalf("second issue at %d (2-wide should allow)", got)
	}
	if got := s.Issue(&c); got != 1 {
		t.Fatalf("third non-branch issued at %d, want 1 (width exceeded)", got)
	}
}

func TestInOrderIssueMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		s := NewIssueState(model())
		prev := -1
		for i := range ins {
			at := s.Issue(&ins[i])
			if at < prev {
				t.Fatalf("issue cycles not monotone: %d after %d", at, prev)
			}
			prev = at
		}
	}
}

func TestEstimateDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		a := EstimateCost(model(), ins)
		b := EstimateCost(model(), ins)
		if a != b {
			t.Fatalf("estimator not deterministic: %d vs %d", a, b)
		}
	}
}

func TestEstimateMonotoneInPrefix(t *testing.T) {
	// Adding instructions never reduces the makespan.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		m := model()
		prev := 0
		for k := 1; k <= len(ins); k++ {
			c := EstimateCost(m, ins[:k])
			if c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEstimateLowerBoundLatency(t *testing.T) {
	// Makespan is at least the max single-instruction latency.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		m := model()
		maxLat := 0
		for i := range ins {
			if l := m.Latency(ins[i].Op); l > maxLat {
				maxLat = l
			}
		}
		return EstimateCost(m, ins) >= maxLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := model()
	s := NewIssueState(m)
	a := ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 0}
	s.Issue(&a)
	c := clone(s)
	b := ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1}
	c.Issue(&b)
	if s.Makespan() == c.Makespan() {
		t.Error("clone mutation affected (or equals) original unexpectedly")
	}
	if got := s.EarliestStart(&b); got != 2 {
		t.Errorf("original state changed by clone use: earliest start %d, want 2", got)
	}
}

func TestResetClearsState(t *testing.T) {
	m := model()
	s := NewIssueState(m)
	a := ir.Instr{Op: ir.DIVW, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}}
	s.Issue(&a)
	s.Reset()
	if s.Makespan() != 0 || s.Cycle() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestScalar603SingleIssue(t *testing.T) {
	m := newScalar603()
	if m.IssueWidth != 1 {
		t.Fatalf("issue width %d, want 1", m.IssueWidth)
	}
	// Two independent adds cannot dual-issue on the scalar machine.
	a := ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 1}
	b := ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(6)}, Imm: 1}
	s := NewIssueState(m)
	if at := s.Issue(&a); at != 0 {
		t.Fatalf("first issues at %d", at)
	}
	if at := s.Issue(&b); at != 1 {
		t.Fatalf("second non-branch issued at %d, want 1 on a scalar machine", at)
	}
}

func TestScalar603UnpipelinedFPU(t *testing.T) {
	m := newScalar603()
	fadd := func(d int) ir.Instr {
		return ir.Instr{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(d)}, Uses: []ir.Reg{ir.FPR(10), ir.FPR(11)}}
	}
	a, b := fadd(2), fadd(3)
	s := NewIssueState(m)
	s.Issue(&a)
	// Independent FP op must wait for the unpipelined FPU.
	if at := s.Issue(&b); at < m.Latency(ir.FADD) {
		t.Errorf("second fadd issued at %d; FPU should be busy for %d cycles", at, m.Latency(ir.FADD))
	}
}

func TestScalar603SlowerThan7410(t *testing.T) {
	// The same block costs at least as much on the older machine.
	modern, old := newMPC7410(), newScalar603()
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		cm := EstimateCost(modern, ins)
		co := EstimateCost(old, ins)
		if co < cm {
			t.Fatalf("trial %d: scalar model faster (%d) than superscalar (%d)", trial, co, cm)
		}
	}
}

func TestModelsShareOpcodeCoverage(t *testing.T) {
	for _, m := range []*Model{newMPC7410(), newScalar603()} {
		for op := ir.Op(1); int(op) < ir.NumOps; op++ {
			if m.Timing[op].Latency < 1 {
				t.Errorf("%s: %v latency %d", m.Name, op, m.Timing[op].Latency)
			}
		}
	}
}
