package jit

import (
	"runtime"
	"testing"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/jolt"
	"schedfilter/internal/workloads"
)

// workloadModules compiles every bundled workload at the given unroll
// factor.
func workloadModules(tb testing.TB, unroll int) []*bytecode.Module {
	tb.Helper()
	var mods []*bytecode.Module
	for _, w := range workloads.All() {
		mod, err := w.CompileWithOptions(jolt.Options{UnrollFactor: unroll})
		if err != nil {
			tb.Fatal(err)
		}
		mods = append(mods, mod)
	}
	return mods
}

// compileAll compiles every module with default options and returns the
// number of machine instructions emitted.
func compileAll(tb testing.TB, mods []*bytecode.Module) int {
	n := 0
	for _, mod := range mods {
		prog, err := Compile(mod, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		n += prog.NumInstrs()
	}
	return n
}

// bytesPerInstr compiles mods once and returns the heap bytes allocated
// per emitted machine instruction.
func bytesPerInstr(tb testing.TB, mods []*bytecode.Module) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := compileAll(tb, mods)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// BenchmarkCompile is the JIT layer benchmark: all bundled workloads
// through Compile with default options, as written (default) and with the
// front end's loops unrolled 4× (unroll4, the training pipeline's input).
// ns/instr and B/instr are per emitted machine instruction.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name   string
		unroll int
	}{{"default", 0}, {"unroll4", 4}} {
		b.Run(c.name, func(b *testing.B) {
			mods := workloadModules(b, c.unroll)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			instrs := 0
			for i := 0; i < b.N; i++ {
				instrs += compileAll(b, mods)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(instrs), "B/instr")
		})
	}
}

// TestCompileAllocsLinear: the JIT's memory is linear in the code it
// emits. Unrolling 4× multiplies the code (and the inliner's splice
// sites), so a JIT that re-copies a function per inlined call, or keeps
// per-register maps, allocates more per instruction at unroll 4 than at
// unroll 0. Bytes per emitted instruction at unroll 4 may exceed those at
// unroll 0 by at most 25%.
func TestCompileAllocsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every workload twice")
	}
	u0 := bytesPerInstr(t, workloadModules(t, 0))
	u4 := bytesPerInstr(t, workloadModules(t, 4))
	t.Logf("unroll 0: %.0f B/instr, unroll 4: %.0f B/instr (%.2f×)", u0, u4, u4/u0)
	if u4 > 1.25*u0 {
		t.Errorf("unroll 4 allocates %.0f B/instr, more than 1.25× unroll 0's %.0f", u4, u0)
	}
}
