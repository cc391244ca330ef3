package jit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/core"
	"schedfilter/internal/interp"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
)

// A generator of random well-typed Jolt programs, used to differential-test
// the whole pipeline (front end → bytecode → interpreter vs JIT → machine
// code → simulator, under every scheduling protocol). Programs are built
// from templates guaranteeing termination: counted loops only, bounded
// depth, and divisors offset away from zero.

type progGen struct {
	r     *rand.Rand
	b     strings.Builder
	nInts int
	nFlts int
	nArrs int
}

func (g *progGen) intVar() string { return fmt.Sprintf("i%d", g.r.Intn(g.nInts)) }
func (g *progGen) fltVar() string { return fmt.Sprintf("f%d", g.r.Intn(g.nFlts)) }
func (g *progGen) arrVar() string { return fmt.Sprintf("a%d", g.r.Intn(g.nArrs)) }

// intExpr emits a side-effect-free int expression of bounded depth.
func (g *progGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(100))
		case 1:
			return g.intVar()
		default:
			return fmt.Sprintf("%s[%d]", g.arrVar(), g.r.Intn(8))
		}
	}
	a, b := g.intExpr(depth-1), g.intExpr(depth-1)
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		// Offset divisor away from zero.
		return fmt.Sprintf("(%s / ((%s & 63) + 1))", a, b)
	case 4:
		return fmt.Sprintf("(%s %% ((%s & 63) + 1))", a, b)
	case 5:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	case 6:
		return fmt.Sprintf("(%s & %s)", a, b)
	default:
		return fmt.Sprintf("(%s << (%s & 7))", a, b)
	}
}

// fltExpr emits a float expression kept roughly bounded (division offsets
// its divisor; no exponential growth within a statement matters for
// equality since both executions are bit-identical).
func (g *progGen) fltExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d.%d", g.r.Intn(10), g.r.Intn(100))
		case 1:
			return g.fltVar()
		default:
			return fmt.Sprintf("float(%s)", g.intVar())
		}
	}
	a, b := g.fltExpr(depth-1), g.fltExpr(depth-1)
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * 0.5 + %s * 0.25)", a, b)
	default:
		return fmt.Sprintf("(%s / (%s * %s + 1.5))", a, b, b)
	}
}

func (g *progGen) cond() string {
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s < %s)", g.intExpr(1), g.intExpr(1))
	case 1:
		return fmt.Sprintf("(%s >= %s)", g.fltVar(), g.fltVar())
	default:
		return fmt.Sprintf("(%s == %s && %s != %s)",
			g.intVar(), g.intVar(), g.intExpr(1), g.intExpr(1))
	}
}

func (g *progGen) stmt(depth, indent int) {
	pad := strings.Repeat("  ", indent)
	switch g.r.Intn(7) {
	case 0:
		fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, g.intVar(), g.intExpr(2))
	case 1:
		fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, g.fltVar(), g.fltExpr(2))
	case 2:
		fmt.Fprintf(&g.b, "%s%s[%d] = %s;\n", pad, g.arrVar(), g.r.Intn(8), g.intExpr(2))
	case 3:
		if depth > 0 {
			fmt.Fprintf(&g.b, "%sif %s {\n", pad, g.cond())
			g.stmt(depth-1, indent+1)
			fmt.Fprintf(&g.b, "%s} else {\n", pad)
			g.stmt(depth-1, indent+1)
			fmt.Fprintf(&g.b, "%s}\n", pad)
		} else {
			fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, g.intVar(), g.intExpr(1))
		}
	case 4:
		if depth > 0 {
			loopVar := fmt.Sprintf("k%d%d", depth, indent)
			fmt.Fprintf(&g.b, "%sfor (var %s int = 0; %s < %d; %s = %s + 1) {\n",
				pad, loopVar, loopVar, 2+g.r.Intn(10), loopVar, loopVar)
			g.stmt(depth-1, indent+1)
			fmt.Fprintf(&g.b, "%s}\n", pad)
		} else {
			fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, g.fltVar(), g.fltExpr(1))
		}
	case 5:
		fmt.Fprintf(&g.b, "%s%s = helper(%s, %s);\n", pad, g.intVar(), g.intExpr(1), g.intExpr(1))
	default:
		fmt.Fprintf(&g.b, "%sprint(%s);\n", pad, g.intExpr(1))
	}
}

// generate builds a complete program.
func generateProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	g := &progGen{r: r, nInts: 4, nFlts: 3, nArrs: 2}

	g.b.WriteString("func helper(x int, y int) int { return (x * 31 + y) & 65535; }\n")
	g.b.WriteString("func main() int {\n")
	for i := 0; i < g.nInts; i++ {
		fmt.Fprintf(&g.b, "  var i%d int = %d;\n", i, r.Intn(50))
	}
	for i := 0; i < g.nFlts; i++ {
		fmt.Fprintf(&g.b, "  var f%d float = %d.%d;\n", i, r.Intn(5), r.Intn(100))
	}
	for i := 0; i < g.nArrs; i++ {
		fmt.Fprintf(&g.b, "  var a%d int[] = new int[8];\n", i)
	}
	nStmts := 4 + r.Intn(10)
	for s := 0; s < nStmts; s++ {
		g.stmt(2, 1)
	}
	// Checksum everything live.
	g.b.WriteString("  var sum int = 0;\n")
	for i := 0; i < g.nInts; i++ {
		fmt.Fprintf(&g.b, "  sum = (sum * 31 + i%d) & 16777215;\n", i)
	}
	for i := 0; i < g.nFlts; i++ {
		fmt.Fprintf(&g.b, "  sum = (sum * 31 + int(f%d * 100.0)) & 16777215;\n", i)
	}
	for i := 0; i < g.nArrs; i++ {
		fmt.Fprintf(&g.b, "  for (var q%d int = 0; q%d < 8; q%d = q%d + 1) { sum = (sum * 7 + a%d[q%d]) & 16777215; }\n",
			i, i, i, i, i, i)
	}
	g.b.WriteString("  return sum;\n}\n")
	return g.b.String()
}

// TestFuzzPipelineDifferential generates random programs and demands that
// the interpreter and the compiled+scheduled code agree exactly —
// including printed output — across front-end unrolling and every
// scheduling protocol.
func TestFuzzPipelineDifferential(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 25
	}
	m := machine.Default().Model
	for seed := int64(0); seed < int64(trials); seed++ {
		src := generateProgram(seed)
		mod, err := jolt.Compile(src, jolt.Options{UnrollFactor: int(seed % 5)})
		if err != nil {
			t.Fatalf("seed %d: front end rejected generated program: %v\n%s", seed, err, src)
		}
		want, err := interp.Run(mod, 1<<24)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		prog, err := Compile(mod, Options{})
		if err != nil {
			t.Fatalf("seed %d: jit: %v\n%s", seed, err, src)
		}
		// Alternate protocols across seeds.
		switch seed % 3 {
		case 1:
			core.Apply(m, prog, policy.Always{}, core.Pass{})
		case 2:
			core.Apply(m, prog, policy.SizeThreshold{MinLen: 6}, core.Pass{})
		}
		got, err := sim.Run(prog, sim.Config{StepLimit: 1 << 24})
		if err != nil {
			t.Fatalf("seed %d: sim: %v\n%s", seed, err, src)
		}
		if got.Ret != want.Ret {
			t.Fatalf("seed %d: ret %d, interp says %d\n%s", seed, got.Ret, want.Ret, src)
		}
		if len(got.Output) != len(want.Output) {
			t.Fatalf("seed %d: output length %d vs %d\n%s", seed, len(got.Output), len(want.Output), src)
		}
		for i := range want.Output {
			if got.Output[i] != want.Output[i] {
				t.Fatalf("seed %d: output[%d] %q vs %q\n%s", seed, i, got.Output[i], want.Output[i], src)
			}
		}
	}
}

// FuzzCompile feeds Jolt source through the front end (lex, parse,
// check, codegen) and the JIT. Whatever the source, nothing panics; a
// program either stage refuses comes back as an error and no output; a
// module the front end accepts passes verification; and accepted output
// holds no virtual int, float or condition register. The
// corpus is seeded from the random program generator, the lowering
// gauntlet, and number literals at and past the edges of their range.
func FuzzCompile(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(generateProgram(seed), uint8(seed%5))
	}
	for _, name := range []string{"calls", "recursion", "globals", "floats", "arrays"} {
		f.Add(programs[name], uint8(0))
	}
	for _, lit := range []string{"9223372036854775807", "9223372036854775808", "0009", "1e309", "1e-400", "2e-324"} {
		f.Add("func main() int { print("+lit+"); return 0; }", uint8(0))
	}
	f.Fuzz(func(t *testing.T, src string, unroll uint8) {
		mod, err := jolt.Compile(src, jolt.Options{UnrollFactor: int(unroll % 5)})
		if err != nil {
			if mod != nil {
				t.Fatalf("jolt.Compile returned a module along with %v", err)
			}
			return
		}
		if mod == nil {
			t.Fatal("jolt.Compile returned neither a module nor an error")
		}
		if err := bytecode.Verify(mod); err != nil {
			t.Fatalf("jolt.Compile accepted a program whose module fails verification: %v", err)
		}
		prog, err := Compile(mod, Options{})
		if err != nil {
			if prog != nil {
				t.Fatalf("Compile returned a program along with %v", err)
			}
			return
		}
		if err := virtualSurvivor(prog); err != nil {
			t.Fatal(err)
		}
	})
}
