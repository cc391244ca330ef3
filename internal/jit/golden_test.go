package jit

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
	"schedfilter/internal/jolt"
	"schedfilter/internal/workloads"
)

// programDigest is an FNV-64a hash over every field of a compiled program:
// each function's name, calling convention and frame size; each block's
// ID, successors and loop-head flag; and each instruction's opcode,
// defs, uses, immediates (the float one by its bits), branch target and
// symbol. Two programs with equal digests are, for every purpose the
// scheduler and the simulator have, the same machine code.
func programDigest(p *ir.Program) uint64 {
	d := digester{h: fnv.New64a()}
	d.word(int64(p.Entry))
	d.word(int64(p.Globals))
	d.word(int64(len(p.Fns)))
	for _, f := range p.Fns {
		d.str(f.Name)
		d.word(int64(f.Entry))
		d.word(int64(f.NumIntArgs))
		d.word(int64(f.NumFloatArgs))
		d.bool(f.RetFloat)
		d.word(int64(f.FrameSlots))
		d.word(int64(len(f.Blocks)))
		for _, b := range f.Blocks {
			d.word(int64(b.ID))
			d.bool(b.LoopHead)
			d.word(int64(len(b.Succs)))
			for _, s := range b.Succs {
				d.word(int64(s))
			}
			d.word(int64(len(b.Instrs)))
			for i := range b.Instrs {
				in := &b.Instrs[i]
				d.word(int64(in.Op))
				d.regs(in.Defs)
				d.regs(in.Uses)
				d.word(in.Imm)
				d.word(int64(math.Float64bits(in.FImm)))
				d.word(int64(in.Target))
				d.str(in.Sym)
			}
		}
	}
	return d.h.Sum64()
}

type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digester) word(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) bool(b bool) {
	if b {
		d.word(1)
	} else {
		d.word(0)
	}
}

func (d *digester) str(s string) {
	d.word(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) regs(rs []ir.Reg) {
	d.word(int64(len(rs)))
	for _, r := range rs {
		d.word(int64(r.Class)<<32 | int64(uint32(r.N)))
	}
}

// goldenOptions are the option sets the golden digests are pinned under.
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"noinline", Options{NoInline: true}},
}

// goldenWorkloads pins the digest of every bundled workload, compiled at
// unroll 0 and 4 under each of goldenOptions. The values were recorded
// from the map-based allocator and splice-per-call inliner; any change to
// the JIT that alters a single emitted bit shows up here.
var goldenWorkloads = map[string]uint64{
	"compress/u0/default":   0xb21ed8ee70c220ad,
	"compress/u0/noinline":  0x245b0c7ad4719f3f,
	"compress/u4/default":   0x5c17ea0414b46039,
	"compress/u4/noinline":  0x81622644915976a3,
	"jess/u0/default":       0x21a0aa3a66a476f2,
	"jess/u0/noinline":      0x5372c444fdf6fe32,
	"jess/u4/default":       0x960233b6d516ff75,
	"jess/u4/noinline":      0x140957f14f08a6bf,
	"db/u0/default":         0xf6d9f88cc07460a9,
	"db/u0/noinline":        0x3f0bf02b9d708b56,
	"db/u4/default":         0x7b6155b435ec0f25,
	"db/u4/noinline":        0x4cb3bd05da33dde7,
	"javac/u0/default":      0x857b3814f1178201,
	"javac/u0/noinline":     0x1e13d110ff594fb4,
	"javac/u4/default":      0x3491d0995558effd,
	"javac/u4/noinline":     0x1e98678096c143f6,
	"mpegaudio/u0/default":  0x2bd471b93ff7f0df,
	"mpegaudio/u0/noinline": 0x02c3e7f9c438c7f0,
	"mpegaudio/u4/default":  0xe74fbab24129554b,
	"mpegaudio/u4/noinline": 0x893af8a78a6ef525,
	"raytrace/u0/default":   0xc9b310295ec8f094,
	"raytrace/u0/noinline":  0x9dd61ded5bd3b063,
	"raytrace/u4/default":   0xe56573a016921ea7,
	"raytrace/u4/noinline":  0xb2f442930cf4813b,
	"jack/u0/default":       0x39e2a9e6937838f8,
	"jack/u0/noinline":      0xc29c02f22a369906,
	"jack/u4/default":       0x0b0c19486f7e6c09,
	"jack/u4/noinline":      0xc49c4c324c396ed3,
	"linpack/u0/default":    0x08e3afa273cee806,
	"linpack/u0/noinline":   0x99002f864854dff0,
	"linpack/u4/default":    0x536f77e94a4ff68b,
	"linpack/u4/noinline":   0x15780410bdf0b6b9,
	"power/u0/default":      0xc10aaf938813be95,
	"power/u0/noinline":     0x6bd343c8f34f4598,
	"power/u4/default":      0xc8b5c61c44091cf4,
	"power/u4/noinline":     0x858b99c0a432fd3e,
	"bh/u0/default":         0x115fa7d4e953b6f3,
	"bh/u0/noinline":        0x0fdfcc9b415367e5,
	"bh/u4/default":         0x3aa4a2d3b9b3f78e,
	"bh/u4/noinline":        0x473563bcd4a45d79,
	"voronoi/u0/default":    0xf68a86dd53b7bf47,
	"voronoi/u0/noinline":   0x1b07816c1c2d29e3,
	"voronoi/u4/default":    0x4dd77a7e326ce66a,
	"voronoi/u4/noinline":   0x07d1a508627a9130,
	"aes/u0/default":        0x8513bb6e3291476e,
	"aes/u0/noinline":       0x7813d80d94992de6,
	"aes/u4/default":        0x60f81fd1503aba22,
	"aes/u4/noinline":       0x1824c1059ccda65e,
	"scimark/u0/default":    0xafccd8aee67cf2a9,
	"scimark/u0/noinline":   0x54bb3d72401bd007,
	"scimark/u4/default":    0xb8691662b7a5b0ce,
	"scimark/u4/noinline":   0xca580ce350cff8d6,
}

// goldenGenerated is the digest over the first goldenSeeds generated
// programs (unroll seed%5, option set seed%2), folded in seed order.
const (
	goldenSeeds     = 200
	goldenGenerated = uint64(0x9f463c9260dcb699)
)

// TestGoldenDigests pins the JIT's output, bit for bit, over the bundled
// workloads and the random program population.
func TestGoldenDigests(t *testing.T) {
	for _, w := range workloads.All() {
		for _, unroll := range []int{0, 4} {
			mod, err := w.CompileWithOptions(jolt.Options{UnrollFactor: unroll})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range goldenOptions {
				key := fmt.Sprintf("%s/u%d/%s", w.Name, unroll, o.name)
				prog, err := Compile(mod, o.opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := programDigest(prog)
				if want, ok := goldenWorkloads[key]; !ok {
					t.Errorf("%s: no golden digest (got %#x)", key, got)
				} else if got != want {
					t.Errorf("%s: digest %#x, want %#x", key, got, want)
				}
			}
		}
	}

	all := digester{h: fnv.New64a()}
	for seed := int64(0); seed < goldenSeeds; seed++ {
		src := generateProgram(seed)
		mod, err := jolt.Compile(src, jolt.Options{UnrollFactor: int(seed % 5)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := Compile(mod, goldenOptions[seed%int64(len(goldenOptions))].opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		all.word(int64(programDigest(prog)))
	}
	if got := all.h.Sum64(); got != goldenGenerated {
		t.Errorf("generated programs: digest %#x, want %#x", got, goldenGenerated)
	}
}

// TestCompileFnMatchesCompile: the per-function entry point the adaptive
// recompiler uses emits exactly the code Compile emits for that function.
func TestCompileFnMatchesCompile(t *testing.T) {
	for _, w := range workloads.All() {
		mod, err := w.CompileWithOptions(jolt.Options{UnrollFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range goldenOptions {
			prog, err := Compile(mod, o.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range prog.Fns {
				fn, err := CompileFn(mod, f.Name, o.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.Name, o.name, f.Name, err)
				}
				got := programDigest(&ir.Program{Fns: []*ir.Fn{fn}})
				if want := programDigest(&ir.Program{Fns: []*ir.Fn{f}}); got != want {
					t.Errorf("%s/%s/%s: CompileFn digest %#x, Compile %#x", w.Name, o.name, f.Name, got, want)
				}
			}
		}
	}
	if _, err := CompileFn(&bytecode.Module{}, "nope", Options{}); err == nil {
		t.Error("CompileFn of a missing function: want an error")
	}
}
