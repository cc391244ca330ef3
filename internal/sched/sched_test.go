package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

func model() *machine.Model { return machine.Default().Model }

// ScheduleInstrs schedules one sequence on a pooled scratch — the way a
// pass that does not hold its own scratch calls the scheduler. The oracle
// tests compare it against the reference implementation.
func ScheduleInstrs(m *machine.Model, instrs []ir.Instr) Result {
	s := GetScratch()
	defer PutScratch(s)
	return ScheduleInstrsScratch(m, instrs, s)
}

func add(d, a, b int) ir.Instr {
	return ir.Instr{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(d)}, Uses: []ir.Reg{ir.GPR(a), ir.GPR(b)}}
}

func TestDAGTrueDependence(t *testing.T) {
	ins := []ir.Instr{add(3, 4, 5), add(6, 3, 7)}
	d := buildDAG(model(), ins)
	if !d.HasPath(0, 1) {
		t.Error("missing true dependence def->use")
	}
}

func TestDAGAntiAndOutput(t *testing.T) {
	// i0 uses r3; i1 writes r3 (anti). i2 writes r3 again (output).
	ins := []ir.Instr{
		add(6, 3, 4),
		add(3, 4, 5),
		add(3, 7, 8),
	}
	d := buildDAG(model(), ins)
	if !d.HasPath(0, 1) {
		t.Error("missing anti dependence use->def")
	}
	if !d.HasPath(1, 2) {
		t.Error("missing output dependence def->def")
	}
}

func TestDAGIndependent(t *testing.T) {
	ins := []ir.Instr{add(3, 4, 5), add(6, 7, 8)}
	d := buildDAG(model(), ins)
	if d.HasPath(0, 1) || d.HasPath(1, 0) {
		t.Error("independent instructions should have no dependence path")
	}
}

func TestDAGMemoryDependences(t *testing.T) {
	ld := func(dst int) ir.Instr {
		return ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(dst)}, Uses: []ir.Reg{ir.GPR(10)}, Imm: 0}
	}
	st := func(src int) ir.Instr {
		return ir.Instr{Op: ir.ST, Uses: []ir.Reg{ir.GPR(src), ir.GPR(10)}, Imm: 0}
	}
	ins := []ir.Instr{st(4), ld(5), st(6), ld(7)}
	d := buildDAG(model(), ins)
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}} {
		if !d.HasPath(pair[0], pair[1]) {
			t.Errorf("missing memory dependence %d->%d", pair[0], pair[1])
		}
	}
	// Two loads with no intervening store are independent.
	ins2 := []ir.Instr{ld(5), ld(7)}
	d2 := buildDAG(model(), ins2)
	if d2.HasPath(0, 1) || d2.HasPath(1, 0) {
		t.Error("load-load should be independent")
	}
}

func TestDAGGuardKeepsLoadBelowCheck(t *testing.T) {
	g := ir.Guard(0)
	ins := []ir.Instr{
		{Op: ir.NULLCHECK, Defs: []ir.Reg{g}, Uses: []ir.Reg{ir.GPR(4)}},
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(4), g}, Imm: 0},
	}
	d := buildDAG(model(), ins)
	if !d.HasPath(0, 1) {
		t.Error("guarded load must depend on its check")
	}
}

func TestDAGLoadsCrossChecksButNotCalls(t *testing.T) {
	g := ir.Guard(0)
	ld := ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(6)}, Imm: 0}
	check := ir.Instr{Op: ir.NULLCHECK, Defs: []ir.Reg{g}, Uses: []ir.Reg{ir.GPR(4)}}
	call := ir.Instr{Op: ir.BL, Target: 0}

	d := buildDAG(model(), []ir.Instr{check, ld})
	if d.HasPath(0, 1) {
		t.Error("an unrelated load may move across a pure check")
	}
	d2 := buildDAG(model(), []ir.Instr{call, ld})
	if !d2.HasPath(0, 1) {
		t.Error("a load may not move above a call")
	}
	d3 := buildDAG(model(), []ir.Instr{ld, call})
	if !d3.HasPath(0, 1) {
		t.Error("a load may not move below a call")
	}
}

func TestDAGStoresDoNotCrossPEI(t *testing.T) {
	st := ir.Instr{Op: ir.ST, Uses: []ir.Reg{ir.GPR(5), ir.GPR(6)}, Imm: 0}
	g := ir.Guard(0)
	check := ir.Instr{Op: ir.NULLCHECK, Defs: []ir.Reg{g}, Uses: []ir.Reg{ir.GPR(4)}}
	d := buildDAG(model(), []ir.Instr{check, st})
	if !d.HasPath(0, 1) {
		t.Error("store may not move above a PEI")
	}
	d2 := buildDAG(model(), []ir.Instr{st, check})
	if !d2.HasPath(0, 1) {
		t.Error("PEI may not move above a store")
	}
}

func TestDAGHazardsStayOrdered(t *testing.T) {
	y1 := ir.Instr{Op: ir.YIELDPOINT}
	y2 := ir.Instr{Op: ir.TSPOINT}
	d := buildDAG(model(), []ir.Instr{y1, y2})
	if !d.HasPath(0, 1) {
		t.Error("hazard points must stay ordered")
	}
}

func TestDAGBranchDependsOnAll(t *testing.T) {
	ins := []ir.Instr{
		add(3, 4, 5),
		add(6, 7, 8),
		{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 0},
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondGT, Target: 1},
	}
	d := buildDAG(model(), ins)
	for i := 0; i < 3; i++ {
		if !d.HasPath(i, 3) {
			t.Errorf("instruction %d must precede the branch", i)
		}
	}
}

// TestCPSPreservesDependenceOrder is the core safety property: every
// dependent pair keeps its relative order in the scheduled sequence.
func TestCPSPreservesDependenceOrder(t *testing.T) {
	m := model()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		d := buildDAG(m, ins)
		res := ScheduleInstrs(m, ins)
		pos := make([]int, len(ins))
		for p, idx := range res.Order {
			pos[idx] = p
		}
		for i := 0; i < d.N; i++ {
			for _, e := range d.Succ[i] {
				if pos[i] >= pos[e.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCPSIsPermutation(t *testing.T) {
	m := model()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		res := ScheduleInstrs(m, ins)
		if len(res.Order) != len(ins) {
			return false
		}
		seen := make([]bool, len(ins))
		for _, idx := range res.Order {
			if idx < 0 || idx >= len(ins) || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCPSDeterministic(t *testing.T) {
	m := model()
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		a := ScheduleInstrs(m, ins)
		b := ScheduleInstrs(m, ins)
		for i := range a.Order {
			if a.Order[i] != b.Order[i] {
				t.Fatal("scheduler is not deterministic")
			}
		}
	}
}

func TestCPSImprovesLoadUsePairs(t *testing.T) {
	// load a; use a; load b; use b  →  scheduling should hoist the
	// second load into the first load's shadow.
	m := model()
	ins := []ir.Instr{
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(10)}, Imm: 0},
		{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1},
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(10)}, Imm: 1},
		{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(6)}, Uses: []ir.Reg{ir.GPR(5)}, Imm: 1},
	}
	res := ScheduleInstrs(m, ins)
	if res.CostAfter >= res.CostBefore {
		t.Errorf("scheduling did not help: before %d, after %d", res.CostBefore, res.CostAfter)
	}
	if !res.Changed {
		t.Error("expected a reordering")
	}
}

func TestCPSImprovesFloatLatencyHiding(t *testing.T) {
	// Serial FP chain interleaved with independent int work: CPS should
	// overlap them.
	m := model()
	ins := []ir.Instr{
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(3)}, Uses: []ir.Reg{ir.FPR(4), ir.FPR(5)}},
		{Op: ir.FMUL, Defs: []ir.Reg{ir.FPR(6)}, Uses: []ir.Reg{ir.FPR(3), ir.FPR(5)}},
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(7)}, Uses: []ir.Reg{ir.FPR(6), ir.FPR(5)}},
		add(10, 11, 12),
		add(13, 14, 15),
		add(16, 17, 18),
	}
	res := ScheduleInstrs(m, ins)
	if res.CostAfter > res.CostBefore {
		t.Errorf("scheduling degraded the block: before %d, after %d", res.CostBefore, res.CostAfter)
	}
}

func TestCPSSingleLegalOrderUnchanged(t *testing.T) {
	// A fully serial chain has exactly one legal order.
	var ins []ir.Instr
	for i := 0; i < 6; i++ {
		ins = append(ins, ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1})
	}
	res := ScheduleInstrs(model(), ins)
	if res.Changed {
		t.Error("serial chain must not be reordered")
	}
	if res.CostAfter != res.CostBefore {
		t.Errorf("costs differ on identical order: %d vs %d", res.CostBefore, res.CostAfter)
	}
}

func TestCPSBranchStaysLast(t *testing.T) {
	m := model()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := blockgen.DefaultConfig
		cfg.WithBranch = true
		ins := blockgen.Gen(r, cfg)
		res := ScheduleInstrs(m, ins)
		last := res.Order[len(res.Order)-1]
		return ins[last].Op.IsBranchOp()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCPSCostNeverWorseOnGenerated(t *testing.T) {
	// Greedy list scheduling is not guaranteed optimal, but on the
	// generated population it should essentially never lose to the
	// original order by more than a trivial margin; track the rate.
	m := model()
	r := rand.New(rand.NewSource(99))
	worse := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		res := ScheduleInstrs(m, ins)
		if res.CostAfter > res.CostBefore {
			worse++
		}
	}
	if worse > trials/10 {
		t.Errorf("scheduler made %d/%d blocks worse", worse, trials)
	}
}

func TestScheduleBlockInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := blockgen.GenBlock(r, blockgen.DefaultConfig, 0)
	orig := b.Clone()
	res, hit := ScheduleBlock(model(), b, nil, NewScratch())
	if hit {
		t.Error("uncached schedule reported a cache hit")
	}
	if len(b.Instrs) != len(orig.Instrs) {
		t.Fatal("block length changed")
	}
	if res.Changed {
		same := true
		for i := range b.Instrs {
			if b.Instrs[i].String() != orig.Instrs[i].String() {
				same = false
				break
			}
		}
		if same {
			t.Error("Changed reported but instructions identical")
		}
	}
}

func TestCriticalPathsSaneBounds(t *testing.T) {
	m := model()
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		d := buildDAG(m, ins)
		cp := d.CriticalPaths(m, ins)
		for i := range ins {
			if cp[i] < m.Latency(ins[i].Op) {
				t.Fatalf("cp[%d]=%d below own latency %d", i, cp[i], m.Latency(ins[i].Op))
			}
			for _, e := range d.Succ[i] {
				if cp[i] < e.Latency+cp[e.To] {
					t.Fatalf("cp[%d]=%d below successor path %d", i, cp[i], e.Latency+cp[e.To])
				}
			}
		}
	}
}

func TestDotExport(t *testing.T) {
	m := model()
	ins := []ir.Instr{
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(10)}, Imm: 0},
		{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1},
	}
	d := buildDAG(m, ins)
	cp := d.CriticalPaths(m, ins)
	dot := d.Dot(ins, cp)
	for _, want := range []string{"digraph block", "n0 -> n1", "cp="} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}
