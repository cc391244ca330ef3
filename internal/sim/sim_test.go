package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
)

// buildProg assembles a tiny one-function program by hand.
func buildProg(blocks []*ir.Block) *ir.Program {
	fn := &ir.Fn{Name: "main", Blocks: blocks}
	return &ir.Program{Fns: []*ir.Fn{fn}}
}

func TestRunStraightLine(t *testing.T) {
	b := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 20},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(5)}, Imm: 22},
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}
	res, err := Run(buildProg([]*ir.Block{b}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Errorf("ret = %d, want 42", res.Ret)
	}
	if res.DynInstrs != 4 {
		t.Errorf("executed %d instructions, want 4", res.DynInstrs)
	}
}

func TestRunLoopAndCounts(t *testing.T) {
	// r3 = 0; r4 = 10; loop: r3 += r4; r4 -= 1; if r4 > 0 goto loop; ret.
	entry := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 0},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 10},
		{Op: ir.B, Target: 1},
	}, Succs: []int{1}}
	loop := &ir.Block{ID: 1, Instrs: []ir.Instr{
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3), ir.GPR(4)}},
		{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: -1},
		{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 0},
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondGT, Target: 1},
	}, Succs: []int{1, 2}, LoopHead: true}
	exit := &ir.Block{ID: 2, Instrs: []ir.Instr{
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}
	res, err := Run(buildProg([]*ir.Block{entry, loop, exit}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 55 {
		t.Errorf("ret = %d, want 55", res.Ret)
	}
	if res.ExecCounts[0][1] != 10 {
		t.Errorf("loop executed %d times, want 10", res.ExecCounts[0][1])
	}
}

func TestTrapsSurface(t *testing.T) {
	cases := []struct {
		name string
		ins  []ir.Instr
		kind string
	}{
		{"div0", []ir.Instr{
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 1},
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(5)}, Imm: 0},
			{Op: ir.DIVW, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}},
			{Op: ir.BLR},
		}, "divide by zero"},
		{"null", []ir.Instr{
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 0},
			{Op: ir.NULLCHECK, Defs: []ir.Reg{ir.Guard(0)}, Uses: []ir.Reg{ir.GPR(4)}},
			{Op: ir.BLR},
		}, "null pointer"},
		{"bounds", []ir.Instr{
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 5},
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(5)}, Imm: 3},
			{Op: ir.BOUNDSCHECK, Defs: []ir.Reg{ir.Guard(0)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}},
			{Op: ir.BLR},
		}, "index out of bounds"},
		{"badload", []ir.Instr{
			{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: -9},
			{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 0},
			{Op: ir.BLR},
		}, "bad load address"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := &ir.Block{ID: 0, Instrs: c.ins}
			_, err := Run(buildProg([]*ir.Block{b}), Config{})
			trap, ok := err.(*Trap)
			if !ok {
				t.Fatalf("want *Trap, got %v", err)
			}
			if len(trap.Kind) < len(c.kind) || trap.Kind[:len(c.kind)] != c.kind {
				t.Errorf("trap kind %q, want prefix %q", trap.Kind, c.kind)
			}
		})
	}
}

func TestAllocAndMemory(t *testing.T) {
	b := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 8},
		{Op: ir.ALLOC, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(4)}},
		// store 99 at arr[2] (word offset 3), reload it.
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(6)}, Imm: 99},
		{Op: ir.ST, Uses: []ir.Reg{ir.GPR(6), ir.GPR(5)}, Imm: 3},
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(7)}, Uses: []ir.Reg{ir.GPR(5)}, Imm: 3},
		// length lives at word 0.
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(8)}, Uses: []ir.Reg{ir.GPR(5)}, Imm: 0},
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(7), ir.GPR(8)}},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}
	res, err := Run(buildProg([]*ir.Block{b}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 107 {
		t.Errorf("ret = %d, want 107 (99 + length 8)", res.Ret)
	}
}

func TestStepLimitEnforced(t *testing.T) {
	spin := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.B, Target: 0},
	}, Succs: []int{0}}
	_, err := Run(buildProg([]*ir.Block{spin}), Config{StepLimit: 500})
	if err == nil {
		t.Fatal("want step-limit error")
	}
}

func TestTimedRequiresModel(t *testing.T) {
	b := &ir.Block{ID: 0, Instrs: []ir.Instr{{Op: ir.BLR}}}
	if _, err := Run(buildProg([]*ir.Block{b}), Config{Timed: true}); err == nil {
		t.Error("timed run without a model should fail")
	}
}

func TestTimedCyclesAtLeastIssueBound(t *testing.T) {
	// 20 serial adds cannot finish in fewer than 20 cycles.
	var ins []ir.Instr
	ins = append(ins, ir.Instr{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 0})
	for i := 0; i < 20; i++ {
		ins = append(ins, ir.Instr{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 1})
	}
	ins = append(ins, ir.Instr{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}})
	b := &ir.Block{ID: 0, Instrs: ins}
	res, err := Run(buildProg([]*ir.Block{b}), Config{Timed: true, Model: machine.Default().Model})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 20 {
		t.Errorf("cycles = %d, want >= 20 for a serial chain", res.Cycles)
	}
	if res.Ret != 20 {
		t.Errorf("ret = %d, want 20", res.Ret)
	}
}

// TestSchedulingPreservesBlockSemantics is the reproduction's central
// safety property: executing a randomly generated block and its
// CPS-scheduled permutation from the same machine state must produce
// identical final states (registers and memory).
func TestSchedulingPreservesBlockSemantics(t *testing.T) {
	m := machine.Default().Model
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		blk := blockgen.GenBlock(r, blockgen.DefaultConfig, 0)

		st1 := NewState(64)
		st2 := st1.Clone()

		if err := ExecBlock(st1, blk); err != nil {
			return true // generated block traps identically either way
		}
		scheduled := blk.Clone()
		sched.ScheduleBlock(m, scheduled, nil, sched.NewScratch())
		if err := ExecBlock(st2, scheduled); err != nil {
			return false
		}
		return st1.Equal(st2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSchedulingPreservesSemanticsUnderRandomInitialState repeats the
// property from randomized starting registers and memory.
func TestSchedulingPreservesSemanticsUnderRandomInitialState(t *testing.T) {
	m := machine.Default().Model
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		blk := blockgen.GenBlock(r, blockgen.DefaultConfig, 0)

		st1 := NewState(64)
		for i := range st1.Regs {
			st1.Regs[i] = r.Int63n(1000)
		}
		for i := range st1.FRegs {
			st1.FRegs[i] = r.Float64() * 100
		}
		for i := range st1.Mem {
			st1.Mem[i] = uint64(r.Int63n(1 << 30))
		}
		st2 := st1.Clone()

		if err := ExecBlock(st1, blk); err != nil {
			return true
		}
		scheduled := blk.Clone()
		sched.ScheduleBlock(m, scheduled, nil, sched.NewScratch())
		if err := ExecBlock(st2, scheduled); err != nil {
			return false
		}
		return st1.Equal(st2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStateCloneIndependent(t *testing.T) {
	st := NewState(32)
	st.Regs[5] = 7
	st.Mem[10] = 11
	c := st.Clone()
	c.Regs[5] = 99
	c.Mem[10] = 99
	if st.Regs[5] != 7 || st.Mem[10] != 11 {
		t.Error("Clone shares storage")
	}
	if st.Equal(c) {
		t.Error("mutated clone should not equal original")
	}
}

func TestCallProtocolPreservesCallerRegisters(t *testing.T) {
	// Callee clobbers r20; the magic ABI must restore it for the caller.
	callee := &ir.Fn{Name: "clobber", Blocks: []*ir.Block{{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(20)}, Imm: 999},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 1},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}}}
	main := &ir.Fn{Name: "main", Blocks: []*ir.Block{{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(20)}, Imm: 41},
		{Op: ir.BL, Target: 1, Defs: []ir.Reg{ir.GPR(3)}},
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(20), ir.GPR(3)}},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}}}
	p := &ir.Program{Fns: []*ir.Fn{main, callee}, Entry: 0}
	res, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Errorf("ret = %d, want 42 (caller's r20 must survive the call)", res.Ret)
	}
}

func TestOutputFormatting(t *testing.T) {
	b := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 42},
		{Op: ir.RTPRINTI, Uses: []ir.Reg{ir.GPR(4)}},
		{Op: ir.LFI, Defs: []ir.Reg{ir.FPR(4)}, FImm: 1.5},
		{Op: ir.RTPRINTF, Uses: []ir.Reg{ir.FPR(4)}},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 0},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}
	res, err := Run(buildProg([]*ir.Block{b}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 || res.Output[0] != "i:42" || res.Output[1] != "f:1.5" {
		t.Errorf("output = %v", res.Output)
	}
}

func TestFloatReturnPreservesIntReturnRegister(t *testing.T) {
	// A float-returning callee must not clobber the caller's r3 (the
	// call protocol delivers exactly the declared return register).
	callee := &ir.Fn{Name: "fval", RetFloat: true, Blocks: []*ir.Block{{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 999}, // scratch use of r3 inside callee
		{Op: ir.LFI, Defs: []ir.Reg{ir.FPR(1)}, FImm: 2.5},
		{Op: ir.BLR, Uses: []ir.Reg{ir.FPR(1)}},
	}}}}
	main := &ir.Fn{Name: "main", Blocks: []*ir.Block{{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 40},
		{Op: ir.BL, Target: 1, Defs: []ir.Reg{ir.FPR(1)}},
		{Op: ir.F2I, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.FPR(1)}},
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3), ir.GPR(4)}},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}}}
	p := &ir.Program{Fns: []*ir.Fn{main, callee}, Entry: 0}
	res, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Errorf("ret = %d, want 42 (r3 must survive a float-returning call)", res.Ret)
	}
}

func TestTakenCountsProfile(t *testing.T) {
	// Loop taken 9 times, falls through once.
	entry := &ir.Block{ID: 0, Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 10},
		{Op: ir.B, Target: 1},
	}, Succs: []int{1}}
	loop := &ir.Block{ID: 1, Instrs: []ir.Instr{
		{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: -1},
		{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 0},
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondGT, Target: 1},
	}, Succs: []int{1, 2}}
	exit := &ir.Block{ID: 2, Instrs: []ir.Instr{
		{Op: ir.MR, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}
	res, err := Run(buildProg([]*ir.Block{entry, loop, exit}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCounts[0][1] != 10 {
		t.Errorf("loop executed %d times, want 10", res.ExecCounts[0][1])
	}
	if res.TakenCounts[0][1] != 9 {
		t.Errorf("loop branch taken %d times, want 9", res.TakenCounts[0][1])
	}
	if res.TakenCounts[0][0] != 0 {
		t.Errorf("unconditional B counted as taken BC: %d", res.TakenCounts[0][0])
	}
}

// spinProg loops forever.
func spinProg() *ir.Program {
	return buildProg([]*ir.Block{{ID: 0, Instrs: []ir.Instr{
		{Op: ir.B, Target: 0},
	}, Succs: []int{0}}})
}

func TestCancelledContextStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A cancelled run stops within one check interval, long before the
	// step limit.
	_, err := Run(spinProg(), Config{Context: ctx, StepLimit: 1 << 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancelled mid-run: the default step limit is billions of
	// instructions away.
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(spinProg(), Config{Context: ctx, Timed: true, Model: machine.Default().Model})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled run took %v", d)
	}
}

// TestRunMemoryReuse runs programs that write in-bounds words far from
// anything they allocated — the gap between heap and stack, next to the
// stack top, the globals — or only allocate, then a program that reads
// those words back. Run memory is reused, and the reader must still see
// zeros, exactly as on fresh memory.
func TestRunMemoryReuse(t *testing.T) {
	const words, globals = 1 << 16, 2
	heap := int64(GlobalBase + globals) // the first allocation's header
	addrs := []int64{GlobalBase, heap, heap + 3, words / 2, words - 3}
	allocator := []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(6)}, Imm: 5},
		{Op: ir.ALLOC, Defs: []ir.Reg{ir.GPR(7)}, Uses: []ir.Reg{ir.GPR(6)}},
		{Op: ir.BLR},
	}
	var storer []ir.Instr
	reader := []ir.Instr{{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 0}}
	for _, a := range addrs {
		storer = append(storer,
			ir.Instr{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 12345},
			ir.Instr{Op: ir.LI, Defs: []ir.Reg{ir.GPR(5)}, Imm: a},
			ir.Instr{Op: ir.ST, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}})
		reader = append(reader,
			ir.Instr{Op: ir.LI, Defs: []ir.Reg{ir.GPR(5)}, Imm: a},
			ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(6)}, Uses: []ir.Reg{ir.GPR(5)}},
			ir.Instr{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3), ir.GPR(6)}})
	}
	storer = append(storer, ir.Instr{Op: ir.BLR})
	reader = append(reader, ir.Instr{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}})
	prog := func(instrs []ir.Instr) *ir.Program {
		p := buildProg([]*ir.Block{{ID: 0, Instrs: instrs}})
		p.Globals = globals
		p.Fns[0].FrameSlots = 8 // the stack pointer starts at words-8
		return p
	}
	cfg := Config{MemWords: words, Timed: true, Model: machine.Default().Model}

	before, err := Run(prog(reader), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, writer := range map[string][]ir.Instr{"storer": storer, "allocator": allocator} {
		if _, err := Run(prog(writer), cfg); err != nil {
			t.Fatal(err)
		}
		after, err := Run(prog(reader), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if after.Ret != 0 || !reflect.DeepEqual(after, before) {
			t.Errorf("reader after %s: %+v, before: %+v", name, after, before)
		}
	}
	select {
	case m := <-freeMem:
		for i, w := range m {
			if w != 0 {
				t.Fatalf("freed memory word %d = %d, want 0", i, w)
			}
		}
	default:
		t.Fatal("no run memory was freed for reuse")
	}
}

// TestRunAllocsFlat checks that a run's allocations do not grow with the
// number of instructions it executes: decoding and bookkeeping are per
// function and block, never per executed instruction.
func TestRunAllocsFlat(t *testing.T) {
	loop := func(n int64) *ir.Program {
		return buildProg([]*ir.Block{
			{ID: 0, Instrs: []ir.Instr{
				{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 0},
				{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: n},
				{Op: ir.B, Target: 1},
			}, Succs: []int{1}},
			{ID: 1, Instrs: []ir.Instr{
				{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(3), ir.GPR(4)}},
				{Op: ir.NULLCHECK, Defs: []ir.Reg{ir.Guard(0)}, Uses: []ir.Reg{ir.GPR(4)}},
				{Op: ir.ST, Uses: []ir.Reg{ir.GPR(3), ir.GPR(2), ir.Guard(0)}},
				{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: -1},
				{Op: ir.CMPI, Defs: []ir.Reg{ir.CR(0)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: 0},
				{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondGT, Target: 1},
			}, Succs: []int{1, 2}},
			{ID: 2, Instrs: []ir.Instr{{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}}}},
		})
	}
	for _, timed := range []bool{false, true} {
		cfg := Config{MemWords: 1 << 12, Timed: timed, Model: machine.Default().Model}
		allocs := func(n int64) float64 {
			p := loop(n)
			return testing.AllocsPerRun(20, func() {
				if _, err := Run(p, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(10), allocs(100000)
		if long != short {
			t.Errorf("timed=%v: %v allocs for 10 iterations, %v for 100000", timed, short, long)
		}
		t.Logf("timed=%v: %v allocs per run", timed, short)
	}
}
