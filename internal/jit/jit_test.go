package jit

import (
	"fmt"
	"testing"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/core"
	"schedfilter/internal/interp"
	"schedfilter/internal/ir"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
)

// programs is a gauntlet of Jolt sources covering every lowering path.
var programs = map[string]string{
	"arith": `
func main() int {
  var a int = 1234;
  var b int = 57;
  return (a*b + a/b - a%b) ^ (a<<3) | (b>>1) & 255;
}`,
	"floats": `
func main() int {
  var s float = 0.0;
  for (var i int = 0; i < 50; i = i + 1) {
    var x float = float(i) * 0.25;
    s = s + x*x - x/(x + 1.0);
  }
  return int(s * 100.0);
}`,
	"arrays": `
func main() int {
  var a int[] = new int[64];
  var b float[] = new float[64];
  for (var i int = 0; i < 64; i = i + 1) {
    a[i] = i * 3 - 7;
    b[i] = float(a[i]) * 0.5;
  }
  var s int = 0;
  for (var i int = 0; i < 64; i = i + 1) {
    s = s + a[i] + int(b[i]);
  }
  print(s);
  return s;
}`,
	"calls": `
func add3(a int, b int, c int) int { return a + b + c; }
func scale(x float, k float) float { return x * k; }
func main() int {
  var s int = 0;
  for (var i int = 0; i < 20; i = i + 1) {
    s = s + add3(i, i*2, i*3);
    s = s + int(scale(float(i), 1.5));
  }
  return s;
}`,
	"recursion": `
func fib(n int) int {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
func ack(m int, n int) int {
  if (m == 0) { return n + 1; }
  if (n == 0) { return ack(m-1, 1); }
  return ack(m-1, ack(m, n-1));
}
func main() int { return fib(18) + ack(2, 3); }`,
	"globals": `
var total int = 100;
var factor float = 0.75;
var data int[];
func init2() {
  data = new int[32];
  for (var i int = 0; i < 32; i = i + 1) { data[i] = i; }
}
func main() int {
  init2();
  for (var i int = 0; i < 32; i = i + 1) {
    total = total + data[i];
  }
  return total + int(factor * 8.0);
}`,
	"logic": `
func main() int {
  var n int = 0;
  for (var i int = 0; i < 64; i = i + 1) {
    if ((i % 3 == 0 && i % 5 != 0) || i > 50) { n = n + i; }
    if (!(i < 32)) { n = n + 1; }
  }
  return n;
}`,
	"sort": `
func main() int {
  var a int[] = new int[40];
  var seed int = 12345;
  for (var i int = 0; i < 40; i = i + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483647;
    a[i] = seed % 1000;
  }
  for (var i int = 0; i < 39; i = i + 1) {
    for (var j int = 0; j < 39 - i; j = j + 1) {
      if (a[j] > a[j+1]) {
        var t int = a[j];
        a[j] = a[j+1];
        a[j+1] = t;
      }
    }
  }
  var prev int = 0 - 1000000;
  var ok int = 1;
  for (var i int = 0; i < 40; i = i + 1) {
    if (a[i] < prev) { ok = 0; }
    prev = a[i];
  }
  return ok * 1000 + a[0] + a[39];
}`,
	"prints": `
func main() int {
  for (var i int = 0; i < 5; i = i + 1) {
    print(i * i);
    print(float(i) / 4.0);
  }
  return 0;
}`,
	"deepexpr": `
func main() int {
  var a int = 3;
  var b int = 7;
  var c int = 11;
  return ((a+b)*(b+c) - (c-a)*(a*b)) / ((a+1) * 2) + (((a*b*c) % 97) << 2);
}`,
}

func compileBoth(t *testing.T, src string, opts Options) (*bytecode.Module, *ir.Program) {
	t.Helper()
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatalf("jolt.Compile: %v", err)
	}
	prog, err := Compile(mod, opts)
	if err != nil {
		t.Fatalf("jit.Compile: %v", err)
	}
	return mod, prog
}

func checkAgainstInterp(t *testing.T, mod *bytecode.Module, prog *ir.Program, label string) {
	t.Helper()
	want, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatalf("%s: interp: %v", label, err)
	}
	got, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatalf("%s: sim: %v", label, err)
	}
	if got.Ret != want.Ret {
		t.Errorf("%s: ret = %d, interp says %d", label, got.Ret, want.Ret)
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("%s: output lengths differ: %d vs %d\nsim: %v\ninterp: %v",
			label, len(got.Output), len(want.Output), got.Output, want.Output)
	}
	for i := range want.Output {
		if got.Output[i] != want.Output[i] {
			t.Errorf("%s: output[%d] = %q, interp says %q", label, i, got.Output[i], want.Output[i])
		}
	}
}

// TestDifferentialNoInline checks compiled-vs-interpreted equivalence with
// the inliner off.
func TestDifferentialNoInline(t *testing.T) {
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			mod, prog := compileBoth(t, src, Options{NoInline: true})
			checkAgainstInterp(t, mod, prog, name)
		})
	}
}

// TestDifferentialInline checks equivalence with aggressive inlining.
func TestDifferentialInline(t *testing.T) {
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			mod, prog := compileBoth(t, src, Options{})
			checkAgainstInterp(t, mod, prog, name)
		})
	}
}

// TestDifferentialScheduled checks that list scheduling every block (and
// filtered scheduling) preserves program behaviour end to end.
func TestDifferentialScheduled(t *testing.T) {
	m := machine.Default().Model
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			mod, prog := compileBoth(t, src, Options{})
			core.Apply(m, prog, policy.Always{}, core.Pass{})
			checkAgainstInterp(t, mod, prog, name+"/LS")

			_, prog2 := compileBoth(t, src, Options{})
			core.Apply(m, prog2, policy.SizeThreshold{MinLen: 5}, core.Pass{})
			checkAgainstInterp(t, mod, prog2, name+"/size5")
		})
	}
}

// TestTimedRunsProduceCycles checks the timed simulator reports cycles and
// executes identically to the functional mode.
func TestTimedRunsProduceCycles(t *testing.T) {
	mod, prog := compileBoth(t, programs["sort"], Options{})
	res, err := sim.Run(prog, sim.Config{Timed: true, Model: machine.Default().Model})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("timed run reported no cycles")
	}
	if res.Cycles < res.DynInstrs/3 {
		t.Errorf("cycles (%d) implausibly low for %d instructions", res.Cycles, res.DynInstrs)
	}
	want, _ := interp.Run(mod, 0)
	if res.Ret != want.Ret {
		t.Errorf("timed ret = %d, want %d", res.Ret, want.Ret)
	}
}

// TestSchedulingReducesCycles: on FP-heavy code, scheduling every block
// should not make the program slower overall (and usually speeds it up).
func TestSchedulingDoesNotSlowDown(t *testing.T) {
	m := machine.Default().Model
	src := programs["floats"]
	_, ns := compileBoth(t, src, Options{})
	_, ls := compileBoth(t, src, Options{})
	core.Apply(m, ls, policy.Always{}, core.Pass{})

	rNS, err := sim.Run(ns, sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	rLS, err := sim.Run(ls, sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if rLS.Ret != rNS.Ret {
		t.Fatalf("scheduling changed the answer: %d vs %d", rLS.Ret, rNS.Ret)
	}
	// Allow a small tolerance: greedy list scheduling may lose a cycle
	// or two on some blocks.
	if float64(rLS.Cycles) > float64(rNS.Cycles)*1.05 {
		t.Errorf("LS cycles %d much worse than NS cycles %d", rLS.Cycles, rNS.Cycles)
	}
}

// TestInlineRespectsLimits verifies the OptOpt bounds.
func TestInlineRespectsLimits(t *testing.T) {
	src := `
func tiny(x int) int { return x + 1; }
func main() int {
  var s int = 0;
  for (var i int = 0; i < 10; i = i + 1) { s = s + tiny(i); }
  return s;
}`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(mod.Fns[mod.FnIndex("main")].Code)
	work := mod.Clone()
	n := inline(work)
	if n == 0 {
		t.Fatal("tiny callee was not inlined")
	}
	after := len(work.Fns[work.FnIndex("main")].Code)
	if after > before*maxExpansion {
		t.Errorf("expansion %d exceeds 7x of %d", after, before)
	}
	if err := bytecode.Verify(work); err != nil {
		t.Fatalf("module invalid after inlining: %v", err)
	}
	// The call must be gone.
	for _, in := range work.Fns[work.FnIndex("main")].Code {
		if in.Op == bytecode.CALL && work.Fns[in.A].Name == "tiny" {
			t.Error("call to tiny survived inlining")
		}
	}
}

func TestInlineSkipsLargeCallees(t *testing.T) {
	// A callee over 30 instructions must not be inlined.
	src := `
func big(x int) int {
  var s int = x;
  s = s + 1; s = s + 2; s = s + 3; s = s + 4; s = s + 5;
  s = s + 6; s = s + 7; s = s + 8; s = s + 9; s = s + 10;
  s = s + 11; s = s + 12; s = s + 13; s = s + 14; s = s + 15;
  return s;
}
func main() int { return big(1); }`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := mod.Clone()
	inline(work)
	found := false
	for _, in := range work.Fns[work.FnIndex("main")].Code {
		if in.Op == bytecode.CALL {
			found = true
		}
	}
	if !found {
		t.Error("oversized callee was inlined")
	}
}

func TestInlineRecursionBounded(t *testing.T) {
	src := `
func r(n int) int {
  if (n <= 0) { return 0; }
  return r(n-1) + 1;
}
func main() int { return r(10); }`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := mod.Clone()
	inline(work)
	if err := bytecode.Verify(work); err != nil {
		t.Fatalf("invalid after inlining recursion: %v", err)
	}
	prog, err := Compile(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 10 {
		t.Errorf("r(10) = %d, want 10", res.Ret)
	}
}

// TestAllRegistersPhysical: after compilation every int/float/cond operand
// must be a physical register (guards excepted).
func TestAllRegistersPhysical(t *testing.T) {
	for name, src := range programs {
		_, prog := compileBoth(t, src, Options{})
		if err := virtualSurvivor(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// virtualSurvivor reports the first int/float/cond operand of prog that
// is not a physical register; guards are virtual by design.
func virtualSurvivor(prog *ir.Program) error {
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				for _, lists := range [][]ir.Reg{b.Instrs[i].Defs, b.Instrs[i].Uses} {
					for _, r := range lists {
						if r.Class != ir.ClassGuard && !r.IsPhys() {
							return fmt.Errorf("%s: virtual register %s survived allocation in %v", fn.Name, r, b.Instrs[i])
						}
					}
				}
			}
		}
	}
	return nil
}

// TestBlocksEndInBranch: every machine block must end with control flow.
func TestBlocksEndInBranch(t *testing.T) {
	_, prog := compileBoth(t, programs["logic"], Options{})
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			if len(b.Instrs) == 0 {
				t.Fatalf("%s: empty block %d", fn.Name, b.ID)
			}
			last := b.Instrs[len(b.Instrs)-1].Op
			if !last.IsBranchOp() {
				t.Errorf("%s block %d ends with %v, not a branch", fn.Name, b.ID, last)
			}
		}
	}
}

// TestHazardPointsPresent: prologues carry thread-switch points; loop
// heads carry yield points; array code carries checks.
func TestHazardPointsPresent(t *testing.T) {
	_, prog := compileBoth(t, programs["arrays"], Options{})
	main := prog.FnByName("main")
	if main == nil {
		t.Fatal("no main")
	}
	if main.Blocks[0].Instrs[0].Op != ir.TSPOINT {
		t.Error("prologue lacks a thread-switch point")
	}
	var yields, checks int
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.YIELDPOINT:
				yields++
			case ir.NULLCHECK, ir.BOUNDSCHECK:
				checks++
			}
		}
	}
	if yields == 0 {
		t.Error("loops lack yield points")
	}
	if checks == 0 {
		t.Error("array accesses lack null/bounds checks")
	}
}

// TestSpillCorrectness forces heavy register pressure and verifies
// behaviour survives spilling.
func TestSpillCorrectness(t *testing.T) {
	// 24 simultaneously-live int locals exceed the 15-register pool.
	src := `
func main() int {
  var a0 int = 1; var a1 int = 2; var a2 int = 3; var a3 int = 4;
  var a4 int = 5; var a5 int = 6; var a6 int = 7; var a7 int = 8;
  var a8 int = 9; var a9 int = 10; var a10 int = 11; var a11 int = 12;
  var a12 int = 13; var a13 int = 14; var a14 int = 15; var a15 int = 16;
  var a16 int = 17; var a17 int = 18; var a18 int = 19; var a19 int = 20;
  var a20 int = 21; var a21 int = 22; var a22 int = 23; var a23 int = 24;
  var s int = 0;
  for (var i int = 0; i < 3; i = i + 1) {
    s = s + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
    s = s + a8 + a9 + a10 + a11 + a12 + a13 + a14 + a15;
    s = s + a16 + a17 + a18 + a19 + a20 + a21 + a22 + a23;
  }
  return s;
}`
	mod, prog := compileBoth(t, src, Options{NoInline: true})
	main := prog.FnByName("main")
	if main.FrameSlots == 0 {
		t.Error("expected spill slots under this much pressure")
	}
	checkAgainstInterp(t, mod, prog, "spill")
}

// TestExecCountsProfile: block execution counts must reflect loop trip
// counts.
func TestExecCountsProfile(t *testing.T) {
	src := `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 37; i = i + 1) { s = s + i; }
  return s;
}`
	_, prog := compileBoth(t, src, Options{NoInline: true})
	res, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mi := -1
	for i, f := range prog.Fns {
		if f.Name == "main" {
			mi = i
		}
	}
	max := int64(0)
	for _, c := range res.ExecCounts[mi] {
		if c > max {
			max = c
		}
	}
	if max < 37 {
		t.Errorf("hottest block executed %d times, want >= 37", max)
	}
}

// Compile is the check in front of the JIT: jolt.Compile leaves
// verification to its consumers, so a malformed module built by hand must
// come back as an error and no program, with the inliner on and off.
func TestCompileRefusesMalformedModule(t *testing.T) {
	mainFn := func(code ...bytecode.Insn) *bytecode.Fn {
		return &bytecode.Fn{Name: "main", Ret: bytecode.TInt, Code: code}
	}
	cases := map[string]*bytecode.Module{
		"stack underflow": {Fns: []*bytecode.Fn{mainFn(
			bytecode.Insn{Op: bytecode.ICONST, I: 1},
			bytecode.Insn{Op: bytecode.IADD},
			bytecode.Insn{Op: bytecode.IRET})}},
		"branch out of range": {Fns: []*bytecode.Fn{mainFn(
			bytecode.Insn{Op: bytecode.GOTO, A: 99})}},
		"falls off the end": {Fns: []*bytecode.Fn{mainFn(
			bytecode.Insn{Op: bytecode.ICONST, I: 1})}},
		"call out of range": {Fns: []*bytecode.Fn{mainFn(
			bytecode.Insn{Op: bytecode.CALL, A: 7},
			bytecode.Insn{Op: bytecode.IRET})}},
		"malformed callee": {Fns: []*bytecode.Fn{
			mainFn(bytecode.Insn{Op: bytecode.CALL, A: 1}, bytecode.Insn{Op: bytecode.IRET}),
			{Name: "f", Ret: bytecode.TInt, Code: []bytecode.Insn{{Op: bytecode.IRET}}}}},
	}
	for name, mod := range cases {
		for _, opts := range []Options{{}, {NoInline: true}} {
			prog, err := Compile(mod, opts)
			if err == nil || prog != nil {
				t.Errorf("%s, %+v: Compile returned program %v, error %v; want no program and an error", name, opts, prog != nil, err)
			}
		}
	}
}
