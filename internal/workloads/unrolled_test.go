package workloads

import (
	"testing"

	"schedfilter/internal/core"
	"schedfilter/internal/interp"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
)

// TestWorkloadsUnrolledDifferential re-runs the full differential check
// with the evaluation pipeline's front-end configuration (4-way loop
// unrolling): interpreter, compiled code, and fully scheduled compiled
// code must all still produce the golden checksums.
func TestWorkloadsUnrolledDifferential(t *testing.T) {
	model := machine.Default().Model
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			mod, err := w.CompileWithOptions(jolt.Options{UnrollFactor: 4})
			if err != nil {
				t.Fatal(err)
			}
			want, err := interp.Run(mod, 0)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			if g, ok := golden[w.Name]; ok && want.Ret != g {
				t.Errorf("unrolling changed the checksum: %d, want %d", want.Ret, g)
			}
			prog, err := jit.Compile(mod, jit.Options{})
			if err != nil {
				t.Fatalf("jit: %v", err)
			}
			core.Apply(model, prog, policy.Always{}, core.Pass{})
			got, err := sim.Run(prog, sim.Config{})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if got.Ret != want.Ret {
				t.Errorf("scheduled unrolled code returned %d, interp says %d", got.Ret, want.Ret)
			}
		})
	}
}

// TestUnrollingGrowsBlockPopulation documents why the evaluation pipeline
// unrolls: it must produce a substantially larger population of blocks
// (and of blocks that benefit from scheduling).
func TestUnrollingGrowsBlockPopulation(t *testing.T) {
	w := ByName("linpack")
	plain, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := w.CompileWithOptions(jolt.Options{UnrollFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := jit.Compile(plain, jit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := jit.Compile(unrolled, jit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumBlocks() <= p1.NumBlocks() {
		t.Errorf("unrolled program has %d blocks, plain has %d", p2.NumBlocks(), p1.NumBlocks())
	}
	if p2.NumInstrs() <= p1.NumInstrs() {
		t.Errorf("unrolled program has %d instrs, plain has %d", p2.NumInstrs(), p1.NumInstrs())
	}
}

// TestWorkloadsSuperblockDifferential is the strongest validation of the
// superblock extension: every workload, compiled with the evaluation
// pipeline, profile-guided superblock-scheduled, must still produce its
// golden checksum — tail duplication, cross-branch code motion, and the
// re-split all preserve semantics.
func TestWorkloadsSuperblockDifferential(t *testing.T) {
	model := machine.Default().Model
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			mod, err := w.CompileWithOptions(jolt.Options{UnrollFactor: 4})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := jit.Compile(mod, jit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Profile on the unscheduled code.
			profRun, err := sim.Run(prog, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			st := core.ApplySuperblocks(model, prog, profRun.ExecCounts, profRun.TakenCounts, policy.Always{})
			if st.Traces == 0 {
				t.Errorf("no superblocks formed on %s", w.Name)
			}
			got, err := sim.Run(prog, sim.Config{})
			if err != nil {
				t.Fatalf("superblock-scheduled run: %v", err)
			}
			if g := golden[w.Name]; got.Ret != g {
				t.Errorf("superblock scheduling changed the checksum: %d, want %d", got.Ret, g)
			}
		})
	}
}
