package ir_test

import (
	"reflect"
	"slices"
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/workloads"
)

// compiled JIT-compiles every bundled workload with the default options.
func compiled(tb testing.TB) map[string]*ir.Program {
	tb.Helper()
	out := map[string]*ir.Program{}
	for _, w := range workloads.All() {
		mod, err := jolt.Compile(w.Source, jolt.Options{})
		if err != nil {
			tb.Fatalf("%s: %v", w.Name, err)
		}
		p, err := jit.Compile(mod, jit.Options{})
		if err != nil {
			tb.Fatalf("%s: %v", w.Name, err)
		}
		out[w.Name] = p
	}
	return out
}

// perFnClone is the program copy built one function, block and
// instruction at a time.
func perFnClone(p *ir.Program) *ir.Program {
	np := &ir.Program{Entry: p.Entry, Globals: p.Globals, Fns: make([]*ir.Fn, len(p.Fns))}
	for i, f := range p.Fns {
		np.Fns[i] = f.Clone()
	}
	return np
}

func TestProgramCloneEqualsPerFnClone(t *testing.T) {
	for name, p := range compiled(t) {
		if got, want := p.Clone(), perFnClone(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flat clone differs from the per-function clone", name)
		}
	}
	empty := &ir.Program{Fns: []*ir.Fn{{Name: "f", Blocks: []*ir.Block{{ID: 0}}}}}
	if got, want := empty.Clone(), perFnClone(empty); !reflect.DeepEqual(got, want) {
		t.Errorf("empty block: flat clone %+v, per-function clone %+v", got.Fns[0].Blocks[0], want.Fns[0].Blocks[0])
	}
}

// Appends to one slice of a clone leave its neighbours in the same
// clone's backing arrays intact, and writes and appends through one clone
// reach neither the original nor a second clone.
func TestProgramCloneIndependence(t *testing.T) {
	p := compiled(t)["compress"]
	want := perFnClone(p)
	a, b := p.Clone(), p.Clone()
	for _, f := range a.Fns {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				in.Defs = append(in.Defs, ir.GPR(98))
				in.Uses = append(in.Uses, ir.FPR(97))
			}
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.NOP})
			blk.Succs = append(blk.Succs, 42)
		}
		f.Blocks = append(f.Blocks, &ir.Block{ID: -1})
	}
	for fi, f := range a.Fns {
		for bi, wb := range want.Fns[fi].Blocks {
			blk := f.Blocks[bi]
			if !slices.Equal(blk.Succs[:len(wb.Succs)], wb.Succs) || len(blk.Instrs) != len(wb.Instrs)+1 {
				t.Fatalf("fn %d block %d: an append overwrote a neighbouring block", fi, bi)
			}
			for i, w := range wb.Instrs {
				in := blk.Instrs[i]
				if in.Op != w.Op || !slices.Equal(in.Defs[:len(w.Defs)], w.Defs) || !slices.Equal(in.Uses[:len(w.Uses)], w.Uses) {
					t.Fatalf("fn %d block %d instr %d: an append overwrote a neighbouring operand list", fi, bi, i)
				}
			}
		}
	}
	for _, f := range a.Fns {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if len(in.Defs) > 0 {
					in.Defs[0] = ir.GPR(99)
				}
				in.Imm++
			}
		}
	}
	if !reflect.DeepEqual(p, want) {
		t.Error("mutating a clone changed the original")
	}
	if !reflect.DeepEqual(b, want) {
		t.Error("mutating a clone changed a second clone")
	}
}

// The copy costs a fixed number of allocations, whatever the program's
// size.
func TestProgramCloneAllocs(t *testing.T) {
	progs := compiled(t)
	small, large := progs["compress"], progs["compress"]
	for _, p := range progs {
		if p.NumInstrs() < small.NumInstrs() {
			small = p
		}
		if p.NumInstrs() > large.NumInstrs() {
			large = p
		}
	}
	allocs := func(p *ir.Program) float64 {
		return testing.AllocsPerRun(20, func() { sink = p.Clone() })
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Errorf("Clone allocs grow with size: %v for %d instrs, %v for %d", a, small.NumInstrs(), b, large.NumInstrs())
	}
	if b > 8 {
		t.Errorf("Clone allocates %v times, want at most 8", b)
	}
}

var sink *ir.Program

// BenchmarkProgramClone copies one bundled program per op, cycling
// through all of them.
func BenchmarkProgramClone(b *testing.B) {
	byName := compiled(b)
	var progs []*ir.Program
	for _, w := range workloads.All() {
		progs = append(progs, byName[w.Name])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = progs[i%len(progs)].Clone()
	}
}
