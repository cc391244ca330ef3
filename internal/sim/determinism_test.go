package sim_test

// Satellite of the adaptive-tier PR: the adaptive controller's
// "future = past" reasoning is only sound if the profile itself is
// reproducible, so pin down that two timed runs of the same program
// observe the identical execution profile, and that the sampling hook
// sees consistent snapshots and can hot-swap safely.

import (
	"reflect"
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

func compileWorkload(t *testing.T, name string) *ir.Program {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	opts := training.DefaultOptions()
	mod, err := w.CompileWithOptions(opts.Frontend)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jit.Compile(mod, opts.JIT)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestTimedRunsDeterministic(t *testing.T) {
	m := machine.Default().Model
	for _, name := range []string{"compress", "scimark"} {
		prog := compileWorkload(t, name)
		first, err := sim.Run(prog, sim.Config{Timed: true, Model: m})
		if err != nil {
			t.Fatalf("%s: first run: %v", name, err)
		}
		second, err := sim.Run(prog, sim.Config{Timed: true, Model: m})
		if err != nil {
			t.Fatalf("%s: second run: %v", name, err)
		}
		if !reflect.DeepEqual(first.ExecCounts, second.ExecCounts) {
			t.Errorf("%s: ExecCounts differ between identical runs", name)
		}
		if !reflect.DeepEqual(first.TakenCounts, second.TakenCounts) {
			t.Errorf("%s: TakenCounts differ between identical runs", name)
		}
		if first.Cycles != second.Cycles {
			t.Errorf("%s: cycles %d != %d", name, first.Cycles, second.Cycles)
		}
		if first.DynInstrs != second.DynInstrs {
			t.Errorf("%s: dynamic instructions %d != %d", name, first.DynInstrs, second.DynInstrs)
		}
	}
}

func last(snaps []*sim.Snapshot) *sim.Snapshot { return snaps[len(snaps)-1] }

func TestSampleEveryRequiresHook(t *testing.T) {
	prog := compileWorkload(t, "compress")
	_, err := sim.Run(prog, sim.Config{Timed: true, Model: machine.Default().Model, SampleEvery: 1000})
	if err == nil {
		t.Fatal("SampleEvery without OnSample should be rejected")
	}
}

func TestSamplingSnapshots(t *testing.T) {
	m := machine.Default().Model
	prog := compileWorkload(t, "compress")
	base, err := sim.Run(prog.Clone(), sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*sim.Snapshot
	res, err := sim.Run(prog.Clone(), sim.Config{
		Timed:       true,
		Model:       m,
		SampleEvery: 10000,
		OnSample: func(s *sim.Snapshot) []sim.FnSwap {
			snaps = append(snaps, s)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered")
	}
	if res.Ret != base.Ret {
		t.Errorf("sampling changed the result: %d != %d", res.Ret, base.Ret)
	}
	var prev int64
	for i, s := range snaps {
		if s.DynInstrs < prev {
			t.Errorf("snapshot %d: DynInstrs went backwards (%d < %d)", i, s.DynInstrs, prev)
		}
		prev = s.DynInstrs
		if len(s.ExecCounts) != len(prog.Fns) {
			t.Fatalf("snapshot %d: %d fn profiles, want %d", i, len(s.ExecCounts), len(prog.Fns))
		}
	}
	// Pinned at the per-instruction simulator: a snapshot reads the same
	// pipeline the run finishes on, so both the sample points and the
	// cycles they observe are fixed.
	var sumCycles int64
	for _, s := range snaps {
		sumCycles += s.Cycles
	}
	if len(snaps) != 59 || snaps[0].Cycles != 14411 || last(snaps).Cycles != 709673 || sumCycles != 23140995 {
		t.Errorf("snapshots: %d, first cycles %d, last cycles %d, sum %d; want 59, 14411, 709673, 23140995",
			len(snaps), snaps[0].Cycles, last(snaps).Cycles, sumCycles)
	}
	if res.Cycles != 710247 || base.Cycles != res.Cycles {
		t.Errorf("cycles with sampling %d, without %d; want 710247 for both", res.Cycles, base.Cycles)
	}
	// Snapshots are copies: the last one must not alias the final result.
	last := snaps[len(snaps)-1]
	last.ExecCounts[0][0] += 1000000
	if res.ExecCounts[0][0] == last.ExecCounts[0][0] {
		t.Error("snapshot aliases the live profile arrays")
	}
}

func TestHotSwapAtSafePoint(t *testing.T) {
	m := machine.Default().Model
	prog := compileWorkload(t, "scimark")
	base, err := sim.Run(prog.Clone(), sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	// At the first sample, swap in a list-scheduled clone of every
	// function that has executed so far.
	work := prog.Clone()
	swapped := false
	res, err := sim.Run(work, sim.Config{
		Timed:       true,
		Model:       m,
		SampleEvery: 5000,
		OnSample: func(s *sim.Snapshot) []sim.FnSwap {
			if swapped {
				return nil
			}
			swapped = true
			var swaps []sim.FnSwap
			for fi := range s.ExecCounts {
				var execs int64
				for _, c := range s.ExecCounts[fi] {
					execs += c
				}
				if execs == 0 {
					continue
				}
				nf := work.Fns[fi].Clone()
				scratch := sched.NewScratch()
				for _, b := range nf.Blocks {
					sched.ScheduleBlock(m, b, nil, scratch)
				}
				swaps = append(swaps, sim.FnSwap{Fn: fi, NewFn: nf})
			}
			return swaps
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Fatal("no hot-swaps installed")
	}
	if res.Ret != base.Ret {
		t.Errorf("hot-swap changed the result: %d != %d", res.Ret, base.Ret)
	}
	if !reflect.DeepEqual(res.Output, base.Output) {
		t.Error("hot-swap changed the program output")
	}
	// List scheduling only permutes within blocks, so instruction counts
	// are conserved even as cycles change.
	if res.DynInstrs != base.DynInstrs {
		t.Errorf("hot-swap changed instruction count: %d != %d", res.DynInstrs, base.DynInstrs)
	}
	// Pinned at the per-instruction simulator: the swapped functions are
	// re-decoded at installation and their new order drives the timing.
	if res.Cycles != 4356637 || base.Cycles != 5477661 {
		t.Errorf("cycles: swapped %d, base %d; want 4356637, 5477661", res.Cycles, base.Cycles)
	}
}
