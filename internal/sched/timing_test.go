package sched

import (
	"reflect"
	"testing"

	"schedfilter/internal/machine"
)

// TestTimedSchedulingEquivalence pins that timing mode changes only the
// accounting, never the schedules.
func TestTimedSchedulingEquivalence(t *testing.T) {
	m := machine.Default().Model
	for bi, instrs := range corpus(17, 32) {
		want := ScheduleInstrsScratch(m, instrs, NewScratch())
		s := NewScratch()
		s.StartTiming()
		got := ScheduleInstrsScratch(m, instrs, s)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("block %d: timed result diverged:\n got %+v\nwant %+v", bi, got, want)
		}
	}
}

// TestTimedSchedulingAccumulates checks that a timed pass actually
// records every phase it runs, that StopTiming resets, and that
// PutScratch never leaks timing mode back into the pool.
func TestTimedSchedulingAccumulates(t *testing.T) {
	m := machine.Default().Model
	s := NewScratch()
	s.StartTiming()
	for _, instrs := range corpus(19, 8) {
		ScheduleInstrsScratch(m, instrs, s)
	}
	p := s.StopTiming()
	if p.DAGBuildNs <= 0 || p.EstimatorNs <= 0 {
		t.Errorf("phases not accumulated: %+v", p)
	}
	if p.Total() != p.CacheLookupNs+p.DAGBuildNs+p.ListSchedNs+p.EstimatorNs {
		t.Errorf("Total() inconsistent: %+v", p)
	}
	if after := s.StopTiming(); after != (PhaseTimes{}) {
		t.Errorf("StopTiming did not reset: %+v", after)
	}

	var q PhaseTimes
	q.Add(p)
	q.Add(p)
	if q.Total() != 2*p.Total() {
		t.Errorf("Add: %d != 2*%d", q.Total(), p.Total())
	}

	s.StartTiming()
	PutScratch(s)
	s2 := GetScratch()
	defer PutScratch(s2)
	if s2.timing {
		t.Error("pooled scratch leaked timing mode")
	}
}

// TestTimedSchedulingAllocs is the acceptance guard: enabling phase
// timers must add zero allocations per block over the untimed pooled
// path (both allocate exactly the returned Order slice).
func TestTimedSchedulingAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	m := machine.Default().Model
	blocks := corpus(7, 16)
	s := NewScratch()

	untimedRun := func() {
		for _, b := range blocks {
			ScheduleInstrsScratch(m, b, s)
		}
	}
	timedRun := func() {
		s.StartTiming()
		for _, b := range blocks {
			ScheduleInstrsScratch(m, b, s)
		}
		s.StopTiming()
	}
	untimedRun() // warm to steady state
	untimed := testing.AllocsPerRun(50, untimedRun) / float64(len(blocks))
	timed := testing.AllocsPerRun(50, timedRun) / float64(len(blocks))

	t.Logf("allocs/block: untimed %.2f, timed %.2f", untimed, timed)
	if timed > untimed {
		t.Errorf("timed path allocates %.2f/block vs untimed %.2f/block; phase timers must add 0 allocs/op",
			timed, untimed)
	}
}

// BenchmarkScheduleInstrsTimed measures the timed variant next to
// BenchmarkScheduleInstrs for the ≤2% overhead acceptance check.
func BenchmarkScheduleInstrsTimed(b *testing.B) {
	m := machine.Default().Model
	blocks := corpus(3, 64)
	s := NewScratch()
	s.StartTiming()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScheduleInstrsScratch(m, blocks[i%len(blocks)], s)
	}
}
