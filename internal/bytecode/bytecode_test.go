package bytecode

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// sumToN builds: func sum(n int) int { s:=0; for i:=1; i<=n; i++ { s+=i }; return s }
func sumToN(t testing.TB) *Fn {
	t.Helper()
	b := NewBuilder("sum", []Type{TInt}, TInt)
	s := b.Local(TInt)
	i := b.Local(TInt)
	b.IConst(0).EmitA(ISTORE, s)
	b.IConst(1).EmitA(ISTORE, i)
	b.Label("loop")
	b.EmitA(ILOAD, i).EmitA(ILOAD, 0).Branch(IFICMPGT, "done")
	b.EmitA(ILOAD, s).EmitA(ILOAD, i).Emit(IADD).EmitA(ISTORE, s)
	b.EmitA(ILOAD, i).IConst(1).Emit(IADD).EmitA(ISTORE, i)
	b.Branch(GOTO, "loop")
	b.Label("done")
	b.EmitA(ILOAD, s).Emit(IRET)
	return b.MustFinish()
}

func mainCalling(t testing.TB, callee int32, arg int64) *Fn {
	t.Helper()
	b := NewBuilder("main", nil, TInt)
	b.IConst(arg).EmitA(CALL, callee).Emit(IRET)
	return b.MustFinish()
}

func validModule(t testing.TB) *Module {
	t.Helper()
	m := &Module{}
	m.Fns = append(m.Fns, sumToN(t))
	m.Fns = append(m.Fns, mainCalling(t, 0, 10))
	return m
}

func TestVerifyAcceptsValidModule(t *testing.T) {
	if err := Verify(validModule(t)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsMissingMain(t *testing.T) {
	m := &Module{Fns: []*Fn{sumToN(t)}}
	if err := Verify(m); err == nil {
		t.Error("want error for module without main")
	}
}

func TestVerifyRejectsStackUnderflow(t *testing.T) {
	b := NewBuilder("main", nil, TInt)
	b.Emit(IADD).Emit(IRET) // nothing on the stack
	m := &Module{Fns: []*Fn{b.MustFinish()}}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("want underflow error, got %v", err)
	}
}

func TestVerifyRejectsTypeConfusion(t *testing.T) {
	b := NewBuilder("main", nil, TInt)
	b.FConst(1.5).Emit(IRET) // float on stack, int return pops int
	m := &Module{Fns: []*Fn{b.MustFinish()}}
	if err := Verify(m); err == nil {
		t.Error("want type error for iret on float")
	}
}

func TestVerifyRejectsBadLocal(t *testing.T) {
	b := NewBuilder("main", nil, TInt)
	b.EmitA(ILOAD, 7).Emit(IRET)
	m := &Module{Fns: []*Fn{b.MustFinish()}}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("want local range error, got %v", err)
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	f := &Fn{Name: "main", Ret: TInt, Code: []Insn{
		{Op: GOTO, A: 99},
		{Op: ICONST, I: 0},
		{Op: IRET},
	}}
	m := &Module{Fns: []*Fn{f}}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("want branch target error, got %v", err)
	}
}

func TestVerifyRejectsFallOffEnd(t *testing.T) {
	f := &Fn{Name: "main", Ret: TInt, Code: []Insn{
		{Op: ICONST, I: 1},
		{Op: POP},
	}}
	m := &Module{Fns: []*Fn{f}}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Errorf("want fall-off error, got %v", err)
	}
}

func TestVerifyRejectsInconsistentStackAtMerge(t *testing.T) {
	// Path A pushes one int, path B pushes two, both reach the merge.
	b := NewBuilder("main", nil, TInt)
	l := b.Local(TInt)
	b.EmitA(ILOAD, l).IConst(0).Branch(IFICMPEQ, "two")
	b.IConst(1).Branch(GOTO, "merge")
	b.Label("two")
	b.IConst(1).IConst(2)
	b.Label("merge")
	b.Emit(IRET)
	m := &Module{Fns: []*Fn{b.MustFinish()}}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("want inconsistent stack error, got %v", err)
	}
}

func TestVerifyRejectsCallArgMismatch(t *testing.T) {
	callee := NewBuilder("f", []Type{TFloat}, TInt)
	callee.IConst(0).Emit(IRET)
	b := NewBuilder("main", nil, TInt)
	b.IConst(3).EmitA(CALL, 0).Emit(IRET) // int arg to float param
	m := &Module{Fns: []*Fn{callee.MustFinish(), b.MustFinish()}}
	if err := Verify(m); err == nil {
		t.Error("want call-arg type error")
	}
}

func TestVerifyRejectsArrayClassConfusion(t *testing.T) {
	b := NewBuilder("main", nil, TInt)
	b.IConst(4).Emit(NEWARRF) // float[] on stack
	b.IConst(0).Emit(IALOAD)  // iaload on float[]
	b.Emit(IRET)
	m := &Module{Fns: []*Fn{b.MustFinish()}}
	if err := Verify(m); err == nil {
		t.Error("want array type error")
	}
}

// TestVerifyShapes: VerifyShapes returns each reachable block's entry
// stack and, on a bad module, exactly Verify's error.
func TestVerifyShapes(t *testing.T) {
	// main: push 5; if local == 0 goto x; push 1; add; x: iret — both
	// paths reach x with one int on the stack.
	b := NewBuilder("main", nil, TInt)
	l := b.Local(TInt)
	b.IConst(5).EmitA(ILOAD, l).IConst(0).Branch(IFICMPEQ, "x")
	b.IConst(1).Emit(IADD)
	b.Label("x")
	b.Emit(IRET)
	m := &Module{Fns: []*Fn{b.MustFinish()}}
	shapes, err := VerifyShapes(m)
	if err != nil {
		t.Fatal(err)
	}
	lead := Leaders(m.Fns[0])
	if len(shapes) != 1 || len(shapes[0]) != len(lead) {
		t.Fatalf("shapes %v for leaders %v", shapes, lead)
	}
	if s, ok := shapes[0][0]; !ok || len(s) != 0 {
		t.Errorf("entry shape %v (present %v), want empty", s, ok)
	}
	if s := shapes[0][lead[len(lead)-1]]; len(s) != 1 || s[0] != TInt {
		t.Errorf("merge shape %v, want [int]", s)
	}

	bad := []*Module{
		{Fns: []*Fn{sumToN(t)}},
		{Fns: []*Fn{{Name: "main", Ret: TInt, Code: []Insn{{Op: GOTO, A: 99}, {Op: ICONST}, {Op: IRET}}}}},
		{Fns: []*Fn{{Name: "main", Ret: TInt, Code: []Insn{{Op: ICONST, I: 1}, {Op: POP}}}}},
		{Fns: []*Fn{{Name: "main", Ret: TInt, Code: []Insn{{Op: IADD}, {Op: IRET}}}}},
	}
	for i, m := range bad {
		want := Verify(m)
		_, got := VerifyShapes(m)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("module %d: VerifyShapes error %v, Verify error %v", i, got, want)
		}
	}
}

func TestLeaders(t *testing.T) {
	f := sumToN(t)
	lead := Leaders(f)
	if lead[0] != 0 {
		t.Errorf("first leader = %d, want 0", lead[0])
	}
	for i := 1; i < len(lead); i++ {
		if lead[i] <= lead[i-1] {
			t.Error("leaders not strictly sorted")
		}
	}
	// The loop head must be a leader.
	var gotoTarget int
	for _, in := range f.Code {
		if in.Op == GOTO {
			gotoTarget = int(in.A)
		}
	}
	found := false
	for _, l := range lead {
		if l == gotoTarget {
			found = true
		}
	}
	if !found {
		t.Errorf("loop head %d is not a leader: %v", gotoTarget, lead)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := validModule(t)
	m.Globals = []Type{TInt, TFloat, TIntArr}
	// Add a float constant to exercise F encoding.
	b := NewBuilder("fstuff", nil, TFloat)
	b.FConst(3.14159).Emit(FRET)
	m.Fns = append(m.Fns, b.MustFinish())

	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != m.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", m, back)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("BOGUS123"))); err == nil {
		t.Error("want magic error")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	m := validModule(t)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("want truncation error")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("main", nil, TInt)
	b.Branch(GOTO, "nowhere")
	if _, err := b.Finish(); err == nil {
		t.Error("want undefined label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("main", nil, TInt)
	b.Label("x").Label("x")
	if _, err := b.Finish(); err == nil {
		t.Error("want duplicate label error")
	}
}

func TestInsnString(t *testing.T) {
	cases := []struct {
		in   Insn
		want string
	}{
		{Insn{Op: ICONST, I: 42}, "iconst 42"},
		{Insn{Op: ILOAD, A: 3}, "iload 3"},
		{Insn{Op: GOTO, A: 7}, "goto @7"},
		{Insn{Op: IADD}, "iadd"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestModuleClone(t *testing.T) {
	m := validModule(t)
	c := m.Clone()
	c.Fns[0].Code[0].I = 999
	if m.Fns[0].Code[0].I == 999 {
		t.Error("Clone shares code storage")
	}
}

// TestEncodeDecodePropertyRandomModules round-trips randomly assembled
// (valid) modules through the binary format.
func TestEncodeDecodePropertyRandomModules(t *testing.T) {
	mkModule := func(seed int64) *Module {
		r := rand.New(rand.NewSource(seed))
		m := &Module{}
		nglob := r.Intn(4)
		for i := 0; i < nglob; i++ {
			m.Globals = append(m.Globals, []Type{TInt, TFloat}[r.Intn(2)])
		}
		b := NewBuilder("main", nil, TInt)
		v := b.Local(TInt)
		b.IConst(int64(r.Intn(1000))).EmitA(ISTORE, v)
		for k := 0; k < r.Intn(10); k++ {
			b.EmitA(ILOAD, v).IConst(int64(r.Intn(50))).Emit(IADD).EmitA(ISTORE, v)
		}
		b.EmitA(ILOAD, v).Emit(IRET)
		m.Fns = append(m.Fns, b.MustFinish())
		return m
	}
	for seed := int64(0); seed < 40; seed++ {
		m := mkModule(seed)
		if err := Verify(m); err != nil {
			t.Fatalf("seed %d: generated module invalid: %v", seed, err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if back.String() != m.String() {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}
