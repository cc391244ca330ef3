package jolt

import (
	"strings"
	"testing"
)

func TestPrintProgramCoversConstructs(t *testing.T) {
	src := `
var g int = 7;
var f float = 1.5;
func helper(a int, b float) float { return float(a) + b; }
func main() int {
  var x int = 0;
  var arr int[] = new int[4];
  for (var i int = 0; i < 4; i = i + 1) {
    if (i % 2 == 0 && !(i == 2)) {
      arr[i] = i << 1;
    } else {
      x = x + int(helper(i, f));
    }
  }
  while (x > 100) { x = x - 1; break; }
  print(x);
  return x + g + len(arr);
}`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := printProgram(prog)
	for _, want := range []string{
		"global g int = 7",
		"func helper(a int, b float) float",
		"func main() int",
		"var arr int[] = new int[4]",
		"for",
		"cond (i < 4)",
		"if ((", // nested condition
		"while (x > 100)",
		"break",
		"print x",
		"return ((x + g) + len(arr))",
		"(i << 1)",
		"helper(i, f)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed AST missing %q:\n%s", want, out)
		}
	}
}

func TestPrintProgramParsesBackConsistently(t *testing.T) {
	// The printer is not a formatter, but printing must be stable:
	// printing the same AST twice yields identical text.
	src := `func main() int { var s int = 1; s = s * 3; return s; }`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := printProgram(prog)
	b := printProgram(prog)
	if a != b {
		t.Error("printProgram is not deterministic")
	}
}

func TestPrintProgramUnrolledShowsRewrite(t *testing.T) {
	src := `func main() int { var s int = 0; for (var i int = 0; i < 8; i = i + 1) { s = s + i; } return s; }`
	prog, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unroll(prog, 2)
	out := printProgram(prog)
	if !strings.Contains(out, "$unroll") {
		t.Errorf("unrolled AST lacks the hoisted limit variable:\n%s", out)
	}
	if strings.Count(out, "s = (s + i)") < 3 {
		t.Errorf("unrolled AST lacks duplicated bodies:\n%s", out)
	}
}

func TestOpTextCoversAllOperators(t *testing.T) {
	ops := []tokKind{tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokLt, tokLe, tokGt, tokGe,
		tokEqEq, tokNotEq, tokAndAnd, tokOrOr, tokNot, tokAmp, tokPipe, tokCaret, tokShl, tokShr}
	seen := map[string]bool{}
	for _, op := range ops {
		s := opText(op)
		if strings.HasPrefix(s, "Kind(") || s == "" {
			t.Errorf("opText(%v) = %q", op, s)
		}
		if seen[s] {
			t.Errorf("duplicate operator text %q", s)
		}
		seen[s] = true
	}
}
