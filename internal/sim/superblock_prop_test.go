package sim

import (
	"math/rand"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
)

// genCFGFn builds a random single-function program with DAG-shaped control
// flow (all branch targets strictly forward, so every run terminates):
// each block gets a random straight-line body from blockgen, then a
// terminator — BC to a random later block with fall-through to the next,
// or B to a random later block. The last block moves a value to r3 and
// returns. Executing it from a zeroed machine is deterministic, so it
// serves as its own oracle across scheduling transformations.
func genCFGFn(r *rand.Rand, nBlocks int) *ir.Program {
	cfg := blockgen.DefaultConfig
	cfg.WithBranch = false
	cfg.MinLen = 2
	cfg.MaxLen = 14

	fn := &ir.Fn{Name: "main"}
	for bi := 0; bi < nBlocks; bi++ {
		b := &ir.Block{ID: bi, Instrs: blockgen.Gen(r, cfg)}
		if bi == nBlocks-1 {
			b.Instrs = append(b.Instrs,
				ir.Instr{Op: ir.MR, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(16)}},
				ir.Instr{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
			)
		} else {
			// Random forward target strictly beyond the fall-through.
			target := bi + 1
			if bi+2 < nBlocks {
				target = bi + 2 + r.Intn(nBlocks-bi-2)
			}
			if r.Intn(3) == 0 {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.B, Target: target})
				b.Succs = []int{target}
			} else {
				cr := ir.CR(r.Intn(4))
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.CMPI, Defs: []ir.Reg{cr}, Uses: []ir.Reg{ir.GPR(16 + int(r.Intn(8)))}, Imm: int64(r.Intn(40))},
					ir.Instr{Op: ir.BC, Uses: []ir.Reg{cr}, Imm: int64(r.Intn(6)), Target: target},
				)
				b.Succs = []int{target, bi + 1}
			}
		}
		fn.Blocks = append(fn.Blocks, b)
	}
	return &ir.Program{Fns: []*ir.Fn{fn}}
}

// fingerprint reduces a run to a comparable value.
func fingerprint(t *testing.T, p *ir.Program) (int64, int64) {
	t.Helper()
	res, err := Run(p, Config{MemWords: 4096, StepLimit: 1 << 20})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return res.Ret, res.DynInstrs
}

// TestSuperblockSchedulingPreservesCFGSemantics: for random DAG CFGs and
// arbitrary (even deliberately wrong) profiles, profile-guided superblock
// scheduling must preserve the program's result. Correctness may not
// depend on profile accuracy — only performance may.
func TestSuperblockSchedulingPreservesCFGSemantics(t *testing.T) {
	m := machine.Default().Model
	for trial := 0; trial < 120; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		p := genCFGFn(r, 4+r.Intn(6))
		wantRet, _ := fingerprint(t, p)

		// A random profile, unrelated to real execution.
		fn := p.Fns[0]
		prof := make([]sched.BlockProfile, len(fn.Blocks))
		for i := range prof {
			prof[i].Exec = int64(r.Intn(1000))
			prof[i].Taken = int64(r.Intn(int(prof[i].Exec + 1)))
		}
		sched.ScheduleSuperblocks(m, fn, prof, nil)

		gotRet, _ := fingerprint(t, p)
		if gotRet != wantRet {
			t.Fatalf("trial %d: superblock scheduling changed the result: %d -> %d\n%s",
				trial, wantRet, gotRet, fn)
		}
		// Structural sanity after the transformation.
		for bi, b := range fn.Blocks {
			if b.ID != bi {
				t.Fatalf("trial %d: block id %d at index %d", trial, b.ID, bi)
			}
			if len(b.Instrs) == 0 {
				t.Fatalf("trial %d: empty block %d", trial, bi)
			}
		}
	}
}

// TestSuperblockSchedulingWithTruthfulProfile repeats the property with
// the real profile from a functional run (the production configuration).
func TestSuperblockSchedulingWithTruthfulProfile(t *testing.T) {
	m := machine.Default().Model
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		p := genCFGFn(r, 5+r.Intn(5))
		res, err := Run(p, Config{MemWords: 4096, StepLimit: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fn := p.Fns[0]
		sched.ScheduleSuperblocks(m, fn, sched.Profile(res.ExecCounts[0], res.TakenCounts[0]), nil)
		got, err := Run(p, Config{MemWords: 4096, StepLimit: 1 << 20})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Ret != res.Ret {
			t.Fatalf("trial %d: result changed %d -> %d", trial, res.Ret, got.Ret)
		}
	}
}
