package jolt

import (
	"testing"

	"schedfilter/internal/interp"
)

// runUnrolled compiles with the given unroll factor and returns the result.
func runUnrolled(t *testing.T, src string, k int) *interp.Result {
	t.Helper()
	m, err := Compile(src, Options{UnrollFactor: k})
	if err != nil {
		t.Fatalf("Compile(k=%d): %v", k, err)
	}
	res, err := interp.Run(m, 0)
	if err != nil {
		t.Fatalf("Run (k=%d): %v", k, err)
	}
	return res
}

// expectSame compiles the program with and without unrolling and demands
// identical results.
func expectSame(t *testing.T, src string, factors ...int) {
	t.Helper()
	base := runUnrolled(t, src, 0)
	for _, k := range factors {
		got := runUnrolled(t, src, k)
		if got.Ret != base.Ret {
			t.Errorf("unroll k=%d changed result: %d vs %d", k, got.Ret, base.Ret)
		}
		if len(got.Output) != len(base.Output) {
			t.Errorf("unroll k=%d changed output length: %d vs %d", k, len(got.Output), len(base.Output))
			continue
		}
		for i := range base.Output {
			if got.Output[i] != base.Output[i] {
				t.Errorf("unroll k=%d changed output[%d]: %q vs %q", k, i, got.Output[i], base.Output[i])
			}
		}
	}
}

func TestUnrollSimpleSum(t *testing.T) {
	expectSame(t, `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 100; i = i + 1) { s = s + i * i; }
  return s;
}`, 2, 3, 4, 8)
}

func TestUnrollNonDivisibleTripCount(t *testing.T) {
	// 97 iterations with k=4 leaves a remainder of 1.
	expectSame(t, `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 97; i = i + 1) { s = s * 3 + i; s = s & 16777215; }
  return s;
}`, 4)
}

func TestUnrollZeroTripCount(t *testing.T) {
	expectSame(t, `
func main() int {
  var s int = 7;
  for (var i int = 5; i < 5; i = i + 1) { s = 0; }
  for (var i int = 9; i < 5; i = i + 1) { s = 0; }
  return s;
}`, 4)
}

func TestUnrollArrayLoop(t *testing.T) {
	expectSame(t, `
func main() int {
  var a int[] = new int[50];
  for (var i int = 0; i < len(a); i = i + 1) { a[i] = i * 7 % 13; }
  var s int = 0;
  for (var i int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
  return s;
}`, 2, 4)
}

func TestUnrollNestedLoops(t *testing.T) {
	expectSame(t, `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 13; i = i + 1) {
    for (var j int = 0; j < 11; j = j + 1) {
      s = s + i * j;
    }
  }
  return s;
}`, 4)
}

func TestUnrollLimitExpression(t *testing.T) {
	expectSame(t, `
func main() int {
  var n int = 33;
  var s int = 0;
  for (var i int = 0; i < n - 1; i = i + 1) { s = s + i; }
  for (var i int = 0; i < n / 2; i = i + 1) { s = s + 2; }
  return s;
}`, 4)
}

func TestUnrollSkipsBreakContinue(t *testing.T) {
	// Loops with break/continue must be left alone (and stay correct).
	src := `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 50; i = i + 1) {
    if (i % 3 == 0) { continue; }
    if (i > 40) { break; }
    s = s + i;
  }
  return s;
}`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := unroll(prog, 4); n != 0 {
		t.Errorf("unsafe loop was unrolled (%d)", n)
	}
	expectSame(t, src, 4)
}

func TestUnrollSkipsInductionAssignment(t *testing.T) {
	src := `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 50; i = i + 1) {
    if (i == 10) { i = 40; }
    s = s + 1;
  }
  return s;
}`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := unroll(prog, 4); n != 0 {
		t.Error("loop assigning its induction variable was unrolled")
	}
	expectSame(t, src, 4)
}

func TestUnrollSkipsMutatedLimit(t *testing.T) {
	src := `
func main() int {
  var n int = 10;
  var s int = 0;
  for (var i int = 0; i < n; i = i + 1) {
    if (i == 3) { n = 20; }
    s = s + 1;
  }
  return s;
}`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := unroll(prog, 4); n != 0 {
		t.Error("loop with a mutated limit was unrolled")
	}
	expectSame(t, src, 4)
}

func TestUnrollCountsLoops(t *testing.T) {
	src := `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 10; i = i + 1) { s = s + 1; }
  for (var j int = 0; j < 10; j = j + 1) { s = s + 2; }
  while (s > 100) { s = s - 1; }
  return s;
}`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := unroll(prog, 4); n != 2 {
		t.Errorf("unrolled %d loops, want 2", n)
	}
}

func TestUnrollWithCallsInBody(t *testing.T) {
	expectSame(t, `
var g int = 0;
func bump(v int) int { g = g + v; return g; }
func main() int {
  var s int = 0;
  for (var i int = 0; i < 30; i = i + 1) { s = s + bump(i); }
  return s + g;
}`, 4)
}

func TestUnrollFactorOneIsNoop(t *testing.T) {
	src := `func main() int { var s int = 0; for (var i int = 0; i < 5; i = i + 1) { s = s + i; } return s; }`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := unroll(prog, 1); n != 0 {
		t.Error("factor 1 must not unroll")
	}
}

func TestUnrollGrowsBlocks(t *testing.T) {
	// The point of the pass: the unrolled body should produce a larger
	// basic block (more straight-line bytecode between branches).
	src := `
func main() int {
  var a float[] = new float[64];
  var s float = 0.0;
  for (var i int = 0; i < 64; i = i + 1) { s = s + a[i] * 2.0; }
  return int(s);
}`
	plain, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := Compile(src, Options{UnrollFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if unrolled.NumInsns() <= plain.NumInsns() {
		t.Errorf("unrolled module not larger: %d vs %d instructions",
			unrolled.NumInsns(), plain.NumInsns())
	}
}
