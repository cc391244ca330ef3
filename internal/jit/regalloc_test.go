package jit

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"schedfilter/internal/interp"
	"schedfilter/internal/jolt"
	"schedfilter/internal/sim"
)

// TestLoopCarriedLivenessRegression pins the linear-scan bug found during
// development: a register holding a value live around a loop back edge
// (here the array base) was reallocated to a temporary defined later in
// the loop body, clobbering the next iteration. The exact shape below
// reproduced it.
func TestLoopCarriedLivenessRegression(t *testing.T) {
	src := `
func main() int {
  var a int[] = new int[8];
  var b float[] = new float[8];
  for (var i int = 0; i < 8; i = i + 1) {
    a[i] = i * 3 - 7;
    b[i] = float(a[i]) * 0.5;
  }
  var s int = 0;
  for (var i int = 0; i < 8; i = i + 1) {
    s = s + a[i] + int(b[i]);
  }
  return s;
}`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(mod, Options{NoInline: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got.Ret != want.Ret {
		t.Errorf("ret = %d, want %d (loop-carried interval clobbered)", got.Ret, want.Ret)
	}
}

// TestRegallocExposedUseInBranchArm covers the other loop-carried shape:
// a value defined in one arm of an if inside a loop and read in the other
// arm on a later iteration.
func TestRegallocExposedUseInBranchArm(t *testing.T) {
	src := `
func main() int {
  var x int = 11;
  var s int = 0;
  for (var i int = 0; i < 20; i = i + 1) {
    if (i % 2 == 0) {
      x = i;
    } else {
      s = s + x; // reads the previous iteration's x
    }
  }
  return s * 100 + x;
}`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(mod, Options{NoInline: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != want.Ret {
		t.Errorf("ret = %d, want %d", got.Ret, want.Ret)
	}
}

// TestDeepCallChainsSpillFrames nests calls deep enough that every frame
// carries spill slots, exercising the stack-pointer discipline.
func TestDeepCallChainsSpillFrames(t *testing.T) {
	src := `
func level(n int, acc int) int {
  var a int = acc + 1; var b int = a + 2; var c int = b + 3;
  var d int = c + 4; var e int = d + 5; var f int = e + 6;
  var g int = f + 7; var h int = g + 8; var i2 int = h + 9;
  var j int = i2 + 10; var k int = j + 11; var l int = k + 12;
  var m int = l + 13; var n2 int = m + 14; var o int = n2 + 15;
  var p int = o + 16; var q int = p + 17;
  if (n <= 0) {
    return a + b + c + d + e + f + g + h + i2 + j + k + l + m + n2 + o + p + q;
  }
  var sub int = level(n - 1, acc + n);
  return sub + a + q - p;
}
func main() int { return level(12, 0); }`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(mod, Options{NoInline: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.FnByName("level").FrameSlots == 0 {
		t.Skip("no spills generated; pressure too low to exercise frames")
	}
	got, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != want.Ret {
		t.Errorf("ret = %d, want %d", got.Ret, want.Ret)
	}
}

// TestFloatSpills forces float register pressure.
func TestFloatSpills(t *testing.T) {
	src := `
func main() int {
  var a float = 1.0; var b float = 2.0; var c float = 3.0; var d float = 4.0;
  var e float = 5.0; var f float = 6.0; var g float = 7.0; var h float = 8.0;
  var i2 float = 9.0; var j float = 10.0; var k float = 11.0; var l float = 12.0;
  var m float = 13.0; var n float = 14.0; var o float = 15.0; var p float = 16.0;
  var q float = 17.0; var r float = 18.0;
  var s float = 0.0;
  for (var t2 int = 0; t2 < 3; t2 = t2 + 1) {
    s = s + a + b + c + d + e + f + g + h + i2 + j + k + l + m + n + o + p + q + r;
  }
  return int(s);
}`
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(mod, Options{NoInline: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(prog, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != want.Ret {
		t.Errorf("ret = %d, want %d", got.Ret, want.Ret)
	}
}

// TestSortByEndMatchesSortSlice: the allocator's spill victim is the last
// active interval, so among equal ends the active order must be exactly
// the one sort.Slice leaves. Replay the allocator's use of the sort —
// a sorted list, one element appended or replaced at the end — over
// tie-heavy ends and every list length up to beyond the pool size.
func TestSortByEndMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(20)
		intervals := make([]interval, n+1)
		for i := range intervals {
			intervals[i].end = r.Intn(6)
		}
		want := make([]int, n-1, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool { return intervals[want[a]].end < intervals[want[b]].end })
		if r.Intn(2) == 0 || len(want) == 0 {
			want = append(want, n-1)
		} else {
			want[len(want)-1] = n
		}
		got := append([]int(nil), want...)
		sort.Slice(want, func(a, b int) bool { return intervals[want[a]].end < intervals[want[b]].end })
		sortByEnd(got, intervals)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortByEnd gave %v, sort.Slice %v", trial, got, want)
		}
	}
}
