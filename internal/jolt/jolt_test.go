package jolt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"schedfilter/internal/interp"
)

// run compiles and interprets a program, returning the result.
func run(t *testing.T, src string) *interp.Result {
	t.Helper()
	m, err := Compile(src, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := interp.Run(m, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// expectRet compiles, runs, and checks main's return value.
func expectRet(t *testing.T, src string, want int64) {
	t.Helper()
	if res := run(t, src); res.Ret != want {
		t.Errorf("ret = %d, want %d", res.Ret, want)
	}
}

// expectErr checks that compilation fails with a message containing want.
func expectErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Compile(src, Options{})
	if err == nil {
		t.Fatalf("Compile succeeded, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestReturnConstant(t *testing.T) {
	expectRet(t, `func main() int { return 42; }`, 42)
}

func TestArithmeticPrecedence(t *testing.T) {
	expectRet(t, `func main() int { return 2 + 3 * 4 - 10 / 2; }`, 9)
	expectRet(t, `func main() int { return (2 + 3) * 4; }`, 20)
	expectRet(t, `func main() int { return 17 % 5; }`, 2)
	expectRet(t, `func main() int { return -7 + 3; }`, -4)
}

func TestFloatArithmetic(t *testing.T) {
	expectRet(t, `func main() int { return int(2.5 * 4.0); }`, 10)
	expectRet(t, `func main() int { return int(float(7) / 2.0 * 2.0); }`, 7)
	expectRet(t, `func main() int { var x float = 1.0e2; return int(x); }`, 100)
}

func TestVariablesAndAssignment(t *testing.T) {
	expectRet(t, `
func main() int {
  var x int = 10;
  var y int;
  y = x * 3;
  x = y - 5;
  return x;
}`, 25)
}

func TestIfElseChains(t *testing.T) {
	src := `
func classify(x int) int {
  if (x < 0) { return 0 - 1; }
  else if (x == 0) { return 0; }
  else { return 1; }
}
func main() int {
  return classify(0-5)*100 + classify(0)*10 + classify(7);
}`
	expectRet(t, src, -99) // (-1)*100 + 0*10 + 1
}

func TestIfElseChainValues(t *testing.T) {
	src := `
func classify(x int) int {
  if (x < 0) { return 1; }
  else if (x == 0) { return 2; }
  else { return 3; }
}
func main() int {
  return classify(-5)*100 + classify(0)*10 + classify(7);
}`
	expectRet(t, src, 123)
}

func TestWhileLoop(t *testing.T) {
	expectRet(t, `
func main() int {
  var s int = 0;
  var i int = 1;
  while (i <= 100) { s = s + i; i = i + 1; }
  return s;
}`, 5050)
}

func TestForLoopWithBreakContinue(t *testing.T) {
	expectRet(t, `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 100; i = i + 1) {
    if (i % 2 == 0) { continue; }
    if (i > 20) { break; }
    s = s + i;
  }
  return s;
}`, 1+3+5+7+9+11+13+15+17+19)
}

func TestNestedLoops(t *testing.T) {
	expectRet(t, `
func main() int {
  var n int = 0;
  for (var i int = 0; i < 10; i = i + 1) {
    for (var j int = 0; j < 10; j = j + 1) {
      if (j == i) { continue; }
      n = n + 1;
    }
  }
  return n;
}`, 90)
}

func TestShortCircuitAnd(t *testing.T) {
	// Division by zero on the right of && must not execute.
	expectRet(t, `
func boom() bool { return 1/0 == 0; }
func main() int {
  if (false && boom()) { return 1; }
  return 2;
}`, 2)
}

func TestShortCircuitOr(t *testing.T) {
	expectRet(t, `
func boom() bool { return 1/0 == 0; }
func main() int {
  if (true || boom()) { return 1; }
  return 2;
}`, 1)
}

func TestBoolMaterialization(t *testing.T) {
	expectRet(t, `
func main() int {
  var b bool = 3 < 5;
  var c bool = !b;
  var d bool = b && (7 >= 7);
  var r int = 0;
  if (b) { r = r + 1; }
  if (c) { r = r + 10; }
  if (d) { r = r + 100; }
  return r;
}`, 101)
}

func TestArrays(t *testing.T) {
	expectRet(t, `
func main() int {
  var a int[] = new int[16];
  for (var i int = 0; i < len(a); i = i + 1) { a[i] = i * i; }
  var s int = 0;
  for (var i int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
  return s;
}`, 1240)
}

func TestFloatArraysAndConversion(t *testing.T) {
	expectRet(t, `
func main() int {
  var a float[] = new float[8];
  for (var i int = 0; i < 8; i = i + 1) { a[i] = float(i) * 0.5; }
  var s float = 0.0;
  for (var i int = 0; i < 8; i = i + 1) { s = s + a[i]; }
  return int(s * 2.0);
}`, 28)
}

func TestGlobalsWithInitializers(t *testing.T) {
	expectRet(t, `
var counter int = 7;
var scale float = 2.5;
var flag bool = true;
func bump() { counter = counter + 1; }
func main() int {
  bump(); bump();
  if (flag) { return counter + int(scale * 4.0); }
  return 0;
}`, 19)
}

func TestRecursion(t *testing.T) {
	expectRet(t, `
func fib(n int) int {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
func main() int { return fib(20); }`, 6765)
}

func TestMutualRecursion(t *testing.T) {
	expectRet(t, `
func isEven(n int) bool { if (n == 0) { return true; } return isOdd(n-1); }
func isOdd(n int) bool { if (n == 0) { return false; } return isEven(n-1); }
func main() int {
  if (isEven(10) && isOdd(7)) { return 1; }
  return 0;
}`, 1)
}

func TestArrayArgumentsShareStorage(t *testing.T) {
	expectRet(t, `
func fill(a int[], v int) {
  for (var i int = 0; i < len(a); i = i + 1) { a[i] = v; }
}
func main() int {
  var a int[] = new int[5];
  fill(a, 9);
  return a[0] + a[4];
}`, 18)
}

func TestPrint(t *testing.T) {
	res := run(t, `
func main() int {
  print(42);
  print(2.5);
  print(1 < 2);
  return 0;
}`)
	want := []string{"i:42", "f:2.5", "i:1"}
	if len(res.Output) != len(want) {
		t.Fatalf("output %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, res.Output[i], want[i])
		}
	}
}

func TestVoidFunctions(t *testing.T) {
	expectRet(t, `
var g int = 0;
func touch() { g = g + 1; }
func main() int {
  touch();
  touch();
  return g;
}`, 2)
}

func TestComments(t *testing.T) {
	expectRet(t, `
// line comment
/* block
   comment */
func main() int { return /* inline */ 5; } // trailing
`, 5)
}

func TestScopeShadowing(t *testing.T) {
	expectRet(t, `
func main() int {
  var x int = 1;
  {
    var x int = 2;
    x = x + 1;
  }
  return x;
}`, 1)
}

// --- error cases ---

func TestErrUndefinedVariable(t *testing.T) {
	expectErr(t, `func main() int { return y; }`, "undefined")
}

func TestErrTypeMismatchAssign(t *testing.T) {
	expectErr(t, `func main() int { var x int = 1.5; return x; }`, "cannot initialize")
}

func TestErrIntFloatMixing(t *testing.T) {
	expectErr(t, `func main() int { return 1 + 2.0; }`, "invalid operands")
}

func TestErrConditionNotBool(t *testing.T) {
	expectErr(t, `func main() int { if (1) { return 1; } return 0; }`, "condition must be bool")
}

func TestErrWrongArgCount(t *testing.T) {
	expectErr(t, `
func f(a int, b int) int { return a + b; }
func main() int { return f(1); }`, "takes 2 arguments")
}

func TestErrWrongArgType(t *testing.T) {
	expectErr(t, `
func f(a float) int { return int(a); }
func main() int { return f(3); }`, "argument 1")
}

func TestErrMissingReturn(t *testing.T) {
	expectErr(t, `func main() int { var x int = 1; x = 2; }`, "missing return")
}

func TestErrNoMain(t *testing.T) {
	expectErr(t, `func helper() int { return 1; }`, "no main")
}

func TestErrBadMainSignature(t *testing.T) {
	expectErr(t, `func main(x int) int { return x; }`, "main must be")
}

func TestErrBreakOutsideLoop(t *testing.T) {
	expectErr(t, `func main() int { break; return 0; }`, "break outside loop")
}

func TestErrRedeclared(t *testing.T) {
	expectErr(t, `func main() int { var x int; var x int; return 0; }`, "redeclared")
}

func TestErrDuplicateFunction(t *testing.T) {
	expectErr(t, `
func f() int { return 1; }
func f() int { return 2; }
func main() int { return f(); }`, "redeclared")
}

func TestErrModuloFloat(t *testing.T) {
	expectErr(t, `func main() int { return int(1.5 % 2.0); }`, "needs int operands")
}

func TestErrIndexNonArray(t *testing.T) {
	expectErr(t, `func main() int { var x int = 1; return x[0]; }`, "indexing non-array")
}

func TestErrLenOfScalar(t *testing.T) {
	expectErr(t, `func main() int { return len(3); }`, "len of non-array")
}

func TestErrAssignToCall(t *testing.T) {
	expectErr(t, `
func f() int { return 1; }
func main() int { f() = 2; return 0; }`, "left side")
}

func TestErrUnterminatedComment(t *testing.T) {
	expectErr(t, `func main() int { return 1; } /* oops`, "unterminated block comment")
}

func TestErrUnexpectedChar(t *testing.T) {
	expectErr(t, `func main() int { return 1 @ 2; }`, "unexpected character")
}

func TestErrBoolArray(t *testing.T) {
	expectErr(t, `func main() int { var a bool[]; return 0; }`, "bool arrays")
}

func TestErrGlobalNonConstInit(t *testing.T) {
	// Global initializers must be literals; the parser rejects the
	// expression at the ';' position.
	expectErr(t, `
var g int = 1 + 2;
func main() int { return g; }`, "expected ';'")
}

func TestErrorPositionsReported(t *testing.T) {
	_, err := Compile("func main() int {\n  return y;\n}", Options{})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q lacks line number 2", err)
	}
}

func TestBitOperators(t *testing.T) {
	expectRet(t, `func main() int { return ((5 ^ 3) | 8) & 14; }`, 14)
	expectRet(t, `func main() int { return (1 << 10) >> 3; }`, 128)
	expectRet(t, `func main() int { return 7 & 3 + 1; }`, 7&(3+1)) // & binds tighter than +
	expectErr(t, `func main() int { return int(1.5 ^ 2.0); }`, "needs int operands")
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex(`x <= 10 && y != 3.5 || !b`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{tokIdent, tokLe, tokIntLit, tokAndAnd, tokIdent, tokNotEq, tokFloatLit, tokOrOr, tokNot, tokIdent, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

// sscanfLiteral is the number scan the lexer used before it called
// strconv directly, kept as the reference TestNumberScanMatchesSscanf
// compares against.
func sscanfLiteral(text string, isFloat bool) (token, error) {
	tok := token{Text: text, Line: 1, Col: 1}
	if isFloat {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return token{}, errf(1, 1, "bad float literal %q", text)
		}
		tok.Kind, tok.Flt = tokFloatLit, f
	} else {
		var v int64
		if _, err := fmt.Sscanf(text, "%d", &v); err != nil {
			return token{}, errf(1, 1, "bad int literal %q", text)
		}
		tok.Kind, tok.Int = tokIntLit, v
	}
	return tok, nil
}

// TestNumberScanMatchesSscanf: the lexer's number scan agrees with the
// fmt.Sscanf scan it replaced on value, overflow refusal and error text,
// over boundary literals and random ones.
func TestNumberScanMatchesSscanf(t *testing.T) {
	lits := []string{
		"0", "7", "007", "0010", "9223372036854775807", "9223372036854775808",
		"09223372036854775807", "18446744073709551616", "99999999999999999999999",
		"0.0", "3.5", "00.25", "1e5", "1E5", "1e+5", "1e-5", "0e0", "2.5e3",
		"1e308", "1.7976931348623157e308", "1.7976931348623159e308", "1e309",
		"1e-400", "2e-324", "3e-324", "4.9e-324", "5e-324", "1e-323",
		"123456789012345678901234567890.5", "0.000000000000000000001e-300",
	}
	r := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + r.Intn(10))
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		s := digits(1 + r.Intn(22))
		if r.Intn(2) == 0 {
			s += "." + digits(1+r.Intn(20))
		}
		if r.Intn(2) == 0 {
			s += [...]string{"e", "E", "e+", "e-"}[r.Intn(4)] + digits(1+r.Intn(3))
		}
		lits = append(lits, s)
	}
	for _, lit := range lits {
		want, wantErr := sscanfLiteral(lit, strings.ContainsAny(lit, ".eE"))
		toks, err := lex(lit)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: lex error %v, want %v", lit, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: lex error %v, Sscanf scans %+v", lit, err, want)
			continue
		}
		got := toks[0]
		if len(toks) != 2 || got.Kind != want.Kind || got.Int != want.Int ||
			math.Float64bits(got.Flt) != math.Float64bits(want.Flt) || got.Text != want.Text {
			t.Errorf("%s: lex gives %+v, Sscanf %+v", lit, toks, want)
		}
	}
}
