package interp

import (
	"strings"
	"testing"

	"schedfilter/internal/bytecode"
)

func mod(t *testing.T, fns ...*bytecode.Fn) *bytecode.Module {
	t.Helper()
	m := &bytecode.Module{Fns: fns}
	if err := bytecode.Verify(m); err != nil {
		t.Fatalf("test module fails verification: %v", err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	// ((7*6 - 2) / 4) % 7  => (40/4)%7 => 10%7 => 3
	b.IConst(7).IConst(6).Emit(bytecode.IMUL)
	b.IConst(2).Emit(bytecode.ISUB)
	b.IConst(4).Emit(bytecode.IDIV)
	b.IConst(7).Emit(bytecode.IREM)
	b.Emit(bytecode.IRET)
	res, err := Run(mod(t, b.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 3 {
		t.Errorf("ret = %d, want 3", res.Ret)
	}
}

func TestBitOps(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	// ((5 ^ 3) | 8) & 14 => (6|8)&14 => 14; then <<2 => 56; >>3 => 7
	b.IConst(5).IConst(3).Emit(bytecode.IXOR)
	b.IConst(8).Emit(bytecode.IOR)
	b.IConst(14).Emit(bytecode.IAND)
	b.IConst(2).Emit(bytecode.ISHL)
	b.IConst(3).Emit(bytecode.ISHR)
	b.Emit(bytecode.IRET)
	res, err := Run(mod(t, b.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 7 {
		t.Errorf("ret = %d, want 7", res.Ret)
	}
}

func TestFloatMathAndConversion(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	// int((2.5 * 4.0 - 1.0) / 3.0) = int(3.0) = 3
	b.FConst(2.5).FConst(4.0).Emit(bytecode.FMUL)
	b.FConst(1.0).Emit(bytecode.FSUB)
	b.FConst(3.0).Emit(bytecode.FDIV)
	b.Emit(bytecode.F2I)
	b.Emit(bytecode.IRET)
	res, err := Run(mod(t, b.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 3 {
		t.Errorf("ret = %d, want 3", res.Ret)
	}
}

func TestLoopAndCall(t *testing.T) {
	sum := bytecode.NewBuilder("sum", []bytecode.Type{bytecode.TInt}, bytecode.TInt)
	s := sum.Local(bytecode.TInt)
	i := sum.Local(bytecode.TInt)
	sum.IConst(0).EmitA(bytecode.ISTORE, s)
	sum.IConst(1).EmitA(bytecode.ISTORE, i)
	sum.Label("loop")
	sum.EmitA(bytecode.ILOAD, i).EmitA(bytecode.ILOAD, 0).Branch(bytecode.IFICMPGT, "done")
	sum.EmitA(bytecode.ILOAD, s).EmitA(bytecode.ILOAD, i).Emit(bytecode.IADD).EmitA(bytecode.ISTORE, s)
	sum.EmitA(bytecode.ILOAD, i).IConst(1).Emit(bytecode.IADD).EmitA(bytecode.ISTORE, i)
	sum.Branch(bytecode.GOTO, "loop")
	sum.Label("done")
	sum.EmitA(bytecode.ILOAD, s).Emit(bytecode.IRET)

	main := bytecode.NewBuilder("main", nil, bytecode.TInt)
	main.IConst(100).EmitA(bytecode.CALL, 0).Emit(bytecode.IRET)

	res, err := Run(mod(t, sum.MustFinish(), main.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 5050 {
		t.Errorf("sum(100) = %d, want 5050", res.Ret)
	}
}

func TestRecursionFib(t *testing.T) {
	fib := bytecode.NewBuilder("fib", []bytecode.Type{bytecode.TInt}, bytecode.TInt)
	fib.EmitA(bytecode.ILOAD, 0).IConst(2).Branch(bytecode.IFICMPLT, "base")
	fib.EmitA(bytecode.ILOAD, 0).IConst(1).Emit(bytecode.ISUB).EmitA(bytecode.CALL, 0)
	fib.EmitA(bytecode.ILOAD, 0).IConst(2).Emit(bytecode.ISUB).EmitA(bytecode.CALL, 0)
	fib.Emit(bytecode.IADD).Emit(bytecode.IRET)
	fib.Label("base")
	fib.EmitA(bytecode.ILOAD, 0).Emit(bytecode.IRET)

	main := bytecode.NewBuilder("main", nil, bytecode.TInt)
	main.IConst(15).EmitA(bytecode.CALL, 0).Emit(bytecode.IRET)

	res, err := Run(mod(t, fib.MustFinish(), main.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 610 {
		t.Errorf("fib(15) = %d, want 610", res.Ret)
	}
}

func TestArraysAndGlobals(t *testing.T) {
	m := &bytecode.Module{Globals: []bytecode.Type{bytecode.TInt}}
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	arr := b.Local(bytecode.TIntArr)
	i := b.Local(bytecode.TInt)
	b.IConst(10).Emit(bytecode.NEWARRI).EmitA(bytecode.ISTORE, arr)
	b.IConst(0).EmitA(bytecode.ISTORE, i)
	b.Label("loop")
	b.EmitA(bytecode.ILOAD, i).IConst(10).Branch(bytecode.IFICMPGE, "done")
	// arr[i] = i*i
	b.EmitA(bytecode.ILOAD, arr).EmitA(bytecode.ILOAD, i)
	b.EmitA(bytecode.ILOAD, i).EmitA(bytecode.ILOAD, i).Emit(bytecode.IMUL)
	b.Emit(bytecode.IASTORE)
	b.EmitA(bytecode.ILOAD, i).IConst(1).Emit(bytecode.IADD).EmitA(bytecode.ISTORE, i)
	b.Branch(bytecode.GOTO, "loop")
	b.Label("done")
	// global = arr[7]; return global + len(arr)
	b.EmitA(bytecode.ILOAD, arr).IConst(7).Emit(bytecode.IALOAD).EmitA(bytecode.GISTORE, 0)
	b.EmitA(bytecode.GILOAD, 0).EmitA(bytecode.ILOAD, arr).Emit(bytecode.ALEN).Emit(bytecode.IADD)
	b.Emit(bytecode.IRET)
	m.Fns = append(m.Fns, b.MustFinish())
	if err := bytecode.Verify(m); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 59 {
		t.Errorf("ret = %d, want 59 (49+10)", res.Ret)
	}
}

func TestFloatArrays(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	arr := b.Local(bytecode.TFloatArr)
	b.IConst(3).Emit(bytecode.NEWARRF).EmitA(bytecode.ISTORE, arr)
	b.EmitA(bytecode.ILOAD, arr).IConst(1).FConst(2.25).Emit(bytecode.FASTORE)
	b.EmitA(bytecode.ILOAD, arr).IConst(1).Emit(bytecode.FALOAD)
	b.FConst(4.0).Emit(bytecode.FMUL).Emit(bytecode.F2I)
	b.Emit(bytecode.IRET)
	res, err := Run(mod(t, b.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 9 {
		t.Errorf("ret = %d, want 9", res.Ret)
	}
}

func TestPrintOutput(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	b.IConst(42).Emit(bytecode.PRINTI)
	b.FConst(1.5).Emit(bytecode.PRINTF)
	b.IConst(0).Emit(bytecode.IRET)
	res, err := Run(mod(t, b.MustFinish()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 || res.Output[0] != "i:42" || res.Output[1] != "f:1.5" {
		t.Errorf("output = %v", res.Output)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	b.IConst(1).IConst(0).Emit(bytecode.IDIV).Emit(bytecode.IRET)
	_, err := Run(mod(t, b.MustFinish()), 0)
	var re *runtimeError
	if err == nil {
		t.Fatal("want divide-by-zero trap")
	}
	if !asRuntime(err, &re) || re.Kind != "divide by zero" {
		t.Errorf("got %v", err)
	}
}

func TestBoundsTrap(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	arr := b.Local(bytecode.TIntArr)
	b.IConst(2).Emit(bytecode.NEWARRI).EmitA(bytecode.ISTORE, arr)
	b.EmitA(bytecode.ILOAD, arr).IConst(5).Emit(bytecode.IALOAD)
	b.Emit(bytecode.IRET)
	_, err := Run(mod(t, b.MustFinish()), 0)
	var re *runtimeError
	if err == nil || !asRuntime(err, &re) || re.Kind != "index out of bounds" {
		t.Errorf("want bounds trap, got %v", err)
	}
}

func TestNullTrap(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	arr := b.Local(bytecode.TIntArr) // zero-initialized => null
	b.EmitA(bytecode.ILOAD, arr).IConst(0).Emit(bytecode.IALOAD)
	b.Emit(bytecode.IRET)
	_, err := Run(mod(t, b.MustFinish()), 0)
	var re *runtimeError
	if err == nil || !asRuntime(err, &re) || re.Kind != "null pointer" {
		t.Errorf("want null trap, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	b := bytecode.NewBuilder("main", nil, bytecode.TInt)
	b.Label("spin").Branch(bytecode.GOTO, "spin")
	b.IConst(0).Emit(bytecode.IRET)
	_, err := Run(mod(t, b.MustFinish()), 1000)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("want step limit error, got %v", err)
	}
}

func asRuntime(err error, out **runtimeError) bool {
	re, ok := err.(*runtimeError)
	if ok {
		*out = re
	}
	return ok
}
