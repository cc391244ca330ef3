package features

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
)

func TestExtractEmpty(t *testing.T) {
	v := Extract(nil)
	for i, x := range v {
		if x != 0 {
			t.Errorf("feature %s = %v on empty block, want 0", Names[i], x)
		}
	}
}

func TestExtractHandComputed(t *testing.T) {
	g := ir.Guard(0)
	ins := []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 1},                                 // int
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 0},      // load
		{Op: ir.NULLCHECK, Defs: []ir.Reg{g}, Uses: []ir.Reg{ir.GPR(3)}},               // int + pei
		{Op: ir.ST, Uses: []ir.Reg{ir.GPR(4), ir.GPR(3)}, Imm: 0},                      // store
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(1)}, Uses: []ir.Reg{ir.FPR(2), ir.FPR(3)}}, // float
		{Op: ir.BL, Target: 0}, // branch+call+gc+pei
		{Op: ir.YIELDPOINT},    // system+yield
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: ir.CondEQ, Target: 2}, // branch
	}
	v := Extract(ins)
	if v.BBLen() != 8 {
		t.Fatalf("bbLen = %d, want 8", v.BBLen())
	}
	check := func(name string, want float64) {
		t.Helper()
		i := slices.Index(Names[:], name)
		if i < 0 {
			t.Fatalf("no feature %q", name)
		}
		if got := v[i]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("branchs", 2.0/8)
	check("calls", 1.0/8)
	check("loads", 1.0/8)
	check("stores", 1.0/8)
	check("returns", 0)
	check("integers", 2.0/8)
	check("floats", 1.0/8)
	check("systems", 1.0/8)
	check("peis", 2.0/8)
	check("gcpoints", 1.0/8)
	check("yieldpoints", 1.0/8)
	check("tspoints", 0)
}

func TestFractionsInRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		v := Extract(ins)
		if v.BBLen() != len(ins) {
			return false
		}
		for i := 1; i < Count; i++ {
			if v[i] < 0 || v[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExtractMatchesNaiveRecount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := blockgen.Gen(r, blockgen.DefaultConfig)
		v := Extract(ins)
		for c := 0; c < ir.NumCategories; c++ {
			count := 0
			for i := range ins {
				if ins[i].Op.Is(1 << uint(c)) {
					count++
				}
			}
			want := float64(count) / float64(len(ins))
			if diff := v[c+1] - want; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVectorString(t *testing.T) {
	ins := []ir.Instr{{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 1}}
	s := Extract(ins).String()
	if s == "" {
		t.Error("empty String()")
	}
}

// TestFractionMatchesLinearScan pins the O(1) Fraction lookup to the
// original linear-scan semantics over every possible 16-bit mask: single
// category bits map to their vector slot, everything else (zero, compound
// masks, bits past NumCategories) reads 0.
func TestFractionMatchesLinearScan(t *testing.T) {
	var v Vector
	for i := range v {
		v[i] = float64(i + 1) // distinct sentinel per slot
	}
	linear := func(c ir.Category) float64 {
		for i := 0; i < ir.NumCategories; i++ {
			if c == 1<<uint(i) {
				return v[i+1]
			}
		}
		return 0
	}
	for mask := 0; mask <= 0xffff; mask++ {
		c := ir.Category(mask)
		if got, want := v.Fraction(c), linear(c); got != want {
			t.Fatalf("Fraction(%#x) = %v, want %v", mask, got, want)
		}
	}
}

// BenchmarkExtract measures the one-pass feature extractor — the cost the
// filter adds to every block, scheduled or not.
func BenchmarkExtract(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	blocks := make([][]ir.Instr, 64)
	for i := range blocks {
		blocks[i] = blockgen.Gen(r, blockgen.DefaultConfig)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(blocks[i%len(blocks)])
	}
}

// BenchmarkFraction measures the per-rule category lookup.
func BenchmarkFraction(b *testing.B) {
	v := Extract([]ir.Instr{{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 1}})
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += v.Fraction(ir.CatLoad)
	}
	_ = sum
}
