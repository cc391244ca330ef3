package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/machine"
)

// TestReferenceEquivalenceAllTargets is the bit-identical-schedules
// invariant of the hot-path rework: across every registered machine
// target, the reduced-edge builder plus the bucket-queue ready list must
// produce exactly the Result — order, costs, changed flag — and exactly
// the critical-path lengths of the retained reference implementation.
func TestReferenceEquivalenceAllTargets(t *testing.T) {
	for _, tgt := range machine.All() {
		m := tgt.Model
		s := NewScratch()
		for bi, instrs := range corpus(17, 48) {
			want := ScheduleInstrsReference(m, instrs)
			got := ScheduleInstrsScratch(m, instrs, s)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s block %d: schedule diverged from reference:\n got %+v\nwant %+v",
					m.Name, bi, got, want)
			}
			pooled := ScheduleInstrs(m, instrs)
			if !reflect.DeepEqual(want, pooled) {
				t.Fatalf("%s block %d: pooled schedule diverged from reference", m.Name, bi)
			}

			ref := BuildDAGReference(m, instrs)
			red := buildDAG(m, instrs)
			if !reflect.DeepEqual(ref.CriticalPaths(m, instrs), red.CriticalPaths(m, instrs)) {
				t.Fatalf("%s block %d: critical paths diverged from reference", m.Name, bi)
			}
			if red.NumEdges() > ref.NumEdges() {
				t.Fatalf("%s block %d: reduced builder emitted more edges (%d) than the reference (%d)",
					m.Name, bi, red.NumEdges(), ref.NumEdges())
			}
		}
	}
}

// TestReferenceClosureEquivalence checks that edge reduction preserves the
// dependence relation itself: the reduced DAG and the reference DAG have
// the same transitive closure, so exactly the same reorderings stay legal.
func TestReferenceClosureEquivalence(t *testing.T) {
	m := machine.Default().Model
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		ref := BuildDAGReference(m, ins)
		red := buildDAG(m, ins)
		for i := 0; i < len(ins); i++ {
			for j := i + 1; j < len(ins); j++ {
				if ref.HasPath(i, j) != red.HasPath(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBuildDAGAllocs extends the allocation regression gate to DAG
// construction alone: on a warmed scratch, building the dependence graph
// must not allocate at all.
func TestBuildDAGAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	m := machine.Default().Model
	blocks := corpus(9, 16)
	s := NewScratch()
	run := func() {
		for _, b := range blocks {
			buildDAGInto(m, b, &s.dag, s)
		}
	}
	run() // warm to steady state
	perBlock := testing.AllocsPerRun(50, run) / float64(len(blocks))
	t.Logf("DAG build allocs/block: %.2f", perBlock)
	if perBlock > 0 {
		t.Errorf("warmed DAG build allocates %.2f/block, want 0", perBlock)
	}
}

// BenchmarkBuildDAG measures reduced-edge DAG construction on the pooled
// scratch (the production path).
func BenchmarkBuildDAG(b *testing.B) {
	m := machine.Default().Model
	blocks := corpus(3, 64)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildDAGInto(m, blocks[i%len(blocks)], &s.dag, s)
	}
}

// BenchmarkBuildDAGReference measures the original full-edge map-based
// builder for before/after comparison.
func BenchmarkBuildDAGReference(b *testing.B) {
	m := machine.Default().Model
	blocks := corpus(3, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDAGReference(m, blocks[i%len(blocks)])
	}
}

// BenchmarkScheduleInstrsReference measures the original build+schedule
// path end to end for before/after comparison.
func BenchmarkScheduleInstrsReference(b *testing.B) {
	m := machine.Default().Model
	blocks := corpus(3, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScheduleInstrsReference(m, blocks[i%len(blocks)])
	}
}
