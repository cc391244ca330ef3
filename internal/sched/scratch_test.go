package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// corpus returns a deterministic set of generated blocks covering a range
// of sizes and instruction mixes.
func corpus(seed int64, n int) [][]ir.Instr {
	r := rand.New(rand.NewSource(seed))
	out := make([][]ir.Instr, n)
	for i := range out {
		out[i] = blockgen.GenBlock(r, blockgen.DefaultConfig, i).Instrs
	}
	return out
}

// TestScratchEquivalence pins the core guarantee of the pooled fast path:
// scheduling through a reused scratch produces bit-identical results to
// freshly allocated working memory, block after block, across models.
func TestScratchEquivalence(t *testing.T) {
	for _, m := range []*machine.Model{machine.Default().Model, machine.MustByName("scalar603").Model} {
		s := NewScratch()
		for bi, instrs := range corpus(11, 64) {
			want := ScheduleInstrsScratch(m, instrs, NewScratch())
			got := ScheduleInstrsScratch(m, instrs, s)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s block %d: scratch result diverged:\n got %+v\nwant %+v",
					m.Name, bi, got, want)
			}
			// And again on the now-dirty scratch: reuse must not leak
			// state between calls.
			again := ScheduleInstrsScratch(m, instrs, s)
			if !reflect.DeepEqual(want, again) {
				t.Fatalf("%s block %d: second scratch run diverged", m.Name, bi)
			}
		}
	}
}

// TestWorkCountIsPerBlock pins that a block's scheduling work, the
// difference of two Work readings, depends only on the block: the same
// on a fresh scratch, on a reused one and with timing on, and at least
// its sweeps, its edges and one scanned candidate per pick.
func TestWorkCountIsPerBlock(t *testing.T) {
	m := machine.Default().Model
	reused, timed := NewScratch(), NewScratch()
	timed.StartTiming()
	for bi, instrs := range corpus(19, 64) {
		fresh := NewScratch()
		ScheduleInstrsScratch(m, instrs, fresh)
		want := fresh.Work()
		if floor := int64(5*len(instrs) + 2*buildDAG(m, instrs).NumEdges()); want < floor {
			t.Fatalf("block %d: work %d below its floor %d", bi, want, floor)
		}
		for name, s := range map[string]*Scratch{"reused": reused, "timed": timed} {
			before := s.Work()
			ScheduleInstrsScratch(m, instrs, s)
			if got := s.Work() - before; got != want {
				t.Fatalf("block %d: %s scratch counted %d, fresh %d", bi, name, got, want)
			}
		}
	}
	s := NewScratch()
	ScheduleInstrsScratch(m, nil, s)
	if s.Work() != 0 {
		t.Errorf("an empty block counted %d units", s.Work())
	}
}

// TestScratchModelSwitch exercises the issue-state rebuild when one
// scratch alternates between machine models.
func TestScratchModelSwitch(t *testing.T) {
	m1, m2 := machine.Default().Model, machine.MustByName("scalar603").Model
	s := NewScratch()
	for _, instrs := range corpus(13, 16) {
		a := ScheduleInstrsScratch(m1, instrs, s)
		b := ScheduleInstrsScratch(m2, instrs, s)
		if !reflect.DeepEqual(a, ScheduleInstrsScratch(m1, instrs, NewScratch())) {
			t.Fatal("model 1 result diverged after switching")
		}
		if !reflect.DeepEqual(b, ScheduleInstrsScratch(m2, instrs, NewScratch())) {
			t.Fatal("model 2 result diverged after switching")
		}
	}
}

// TestScheduleInstrsAllocs is the allocation regression test of the
// tentpole: steady-state scheduling on a warmed scratch must allocate only
// the returned order slice — at least 5x below the unpooled reference
// path (the seed behavior), per the PR's acceptance bar.
func TestScheduleInstrsAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	m := machine.Default().Model
	blocks := corpus(7, 16)
	s := NewScratch()
	run := func() {
		for _, b := range blocks {
			ScheduleInstrsScratch(m, b, s)
		}
	}
	run() // warm the scratch to steady state
	pooled := testing.AllocsPerRun(50, run) / float64(len(blocks))
	unpooled := testing.AllocsPerRun(10, func() {
		for _, b := range blocks {
			ScheduleInstrsScratch(m, b, NewScratch())
		}
	}) / float64(len(blocks))

	t.Logf("allocs/block: pooled %.2f, unpooled %.2f", pooled, unpooled)
	// Exactly one allocation per block (Result.Order); allow a little
	// slack for runtime noise.
	if pooled > 2 {
		t.Errorf("pooled path allocates %.2f/block, want <= 2", pooled)
	}
	if pooled*5 > unpooled {
		t.Errorf("pooled path (%.2f/block) is not >= 5x below the unpooled reference (%.2f/block)",
			pooled, unpooled)
	}
}

// BenchmarkScheduleInstrs measures the pooled production path (the CI
// bench smoke runs this; see docs/perf.md for the benchstat workflow).
func BenchmarkScheduleInstrs(b *testing.B) {
	m := machine.Default().Model
	blocks := corpus(3, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScheduleInstrs(m, blocks[i%len(blocks)])
	}
}
