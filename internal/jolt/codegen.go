package jolt

import (
	"fmt"

	"schedfilter/internal/bytecode"
)

// Options configure front-end optimization passes.
type Options struct {
	// UnrollFactor unrolls eligible counted loops by this factor
	// (0 or 1 disables unrolling).
	UnrollFactor int
}

// Compile parses, checks, and lowers a Jolt source file to a bytecode
// module, applying opt's front-end passes between parsing and checking.
// A refused program returns a nil module and an error. The module is not
// verified here: its consumers (jit.Compile, interp.Run) verify what they
// are given, so a compiled request pays for one check.
func Compile(src string, opt Options) (*bytecode.Module, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	unroll(prog, opt.UnrollFactor)
	info, err := check(prog)
	if err != nil {
		return nil, err
	}
	return generate(prog, info)
}

// generate lowers a checked program to bytecode.
func generate(prog *program, info *checkInfo) (*bytecode.Module, error) {
	m := &bytecode.Module{}
	for _, t := range info.GlobalTypes {
		m.Globals = append(m.Globals, bcType(t))
	}

	// Function indices: user functions keep their checker indices; the
	// synthesized $init goes last.
	for _, f := range prog.Funcs {
		g := &generator{info: info, fnIndexOffset: 0}
		bf, err := g.genFn(f)
		if err != nil {
			return nil, err
		}
		m.Fns = append(m.Fns, bf)
	}

	if initFn := genInit(prog, info); initFn != nil {
		m.Fns = append(m.Fns, initFn)
	}
	return m, nil
}

// genInit synthesizes $init from the global initializers.
func genInit(prog *program, info *checkInfo) *bytecode.Fn {
	any := false
	b := bytecode.NewBuilder(bytecode.InitFnName, nil, bytecode.TVoid)
	for _, g := range prog.Globals {
		if g.Init == nil {
			continue
		}
		any = true
		slot := int32(info.GlobalIndex[g.Name])
		switch lit := g.Init.(type) {
		case *intLit:
			b.IConst(lit.Value).EmitA(bytecode.GISTORE, slot)
		case *floatLit:
			b.FConst(lit.Value).EmitA(bytecode.GFSTORE, slot)
		case *boolLit:
			v := int64(0)
			if lit.Value {
				v = 1
			}
			b.IConst(v).EmitA(bytecode.GISTORE, slot)
		}
	}
	if !any {
		return nil
	}
	b.Emit(bytecode.RET)
	return b.MustFinish()
}

func bcType(t typeKind) bytecode.Type {
	switch t {
	case tyInt:
		return bytecode.TInt
	case tyFloat:
		return bytecode.TFloat
	case tyBool:
		return bytecode.TBool
	case tyIntArr:
		return bytecode.TIntArr
	case tyFloatArr:
		return bytecode.TFloatArr
	}
	return bytecode.TVoid
}

type loopLabels struct {
	brk  string
	cont string
}

type generator struct {
	info          *checkInfo
	fnIndexOffset int
	b             *bytecode.Builder
	fn            *funcDecl
	loops         []loopLabels
	labelSeq      int
}

func (g *generator) newLabel(hint string) string {
	g.labelSeq++
	return fmt.Sprintf("%s%d", hint, g.labelSeq)
}

func (g *generator) genFn(f *funcDecl) (*bytecode.Fn, error) {
	params := make([]bytecode.Type, len(f.Params))
	for i, p := range f.Params {
		params[i] = bcType(p.Type)
	}
	g.b = bytecode.NewBuilder(f.Name, params, bcType(f.Ret))
	g.fn = f
	// Declare the checker's slot layout (params already occupy the
	// first slots).
	slots := g.info.LocalSlots[f]
	for _, t := range slots[len(f.Params):] {
		g.b.Local(bcType(t))
	}
	if err := g.block(f.Body); err != nil {
		return nil, err
	}
	// Void functions may fall off the end.
	if f.Ret == tyVoid {
		g.b.Emit(bytecode.RET)
	} else {
		// The checker guarantees all paths return; this trailing
		// return is unreachable but keeps the verifier's
		// fall-off-the-end analysis trivially satisfied for
		// loop-tailed bodies.
		g.zeroValue(f.Ret)
		g.ret(f.Ret)
	}
	return g.b.Finish()
}

func (g *generator) zeroValue(t typeKind) {
	if t == tyFloat {
		g.b.FConst(0)
	} else {
		g.b.IConst(0)
	}
}

func (g *generator) ret(t typeKind) {
	switch t {
	case tyVoid:
		g.b.Emit(bytecode.RET)
	case tyFloat:
		g.b.Emit(bytecode.FRET)
	default:
		g.b.Emit(bytecode.IRET)
	}
}

func (g *generator) block(b *blockStmt) error {
	for _, s := range b.Stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) stmt(s stmt) error {
	switch s := s.(type) {
	case *blockStmt:
		return g.block(s)
	case *varStmt:
		if s.Init != nil {
			if err := g.expr(s.Init); err != nil {
				return err
			}
		} else {
			g.zeroValue(s.Type)
		}
		g.store(false, s.Slot, s.Type)
		return nil
	case *assignStmt:
		switch lhs := s.LHS.(type) {
		case *ident:
			if err := g.expr(s.RHS); err != nil {
				return err
			}
			g.store(lhs.Global, lhs.Slot, lhs.typ())
			return nil
		case *indexExpr:
			if err := g.expr(lhs.Arr); err != nil {
				return err
			}
			if err := g.expr(lhs.Index); err != nil {
				return err
			}
			if err := g.expr(s.RHS); err != nil {
				return err
			}
			if lhs.typ() == tyFloat {
				g.b.Emit(bytecode.FASTORE)
			} else {
				g.b.Emit(bytecode.IASTORE)
			}
			return nil
		}
		return fmt.Errorf("jolt: bad assignment target %T", s.LHS)
	case *ifStmt:
		lThen := g.newLabel("then")
		lEnd := g.newLabel("endif")
		lElse := lEnd
		if s.Else != nil {
			lElse = g.newLabel("else")
		}
		if err := g.cond(s.Cond, lThen, lElse); err != nil {
			return err
		}
		g.b.Label(lThen)
		if err := g.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			g.b.Branch(bytecode.GOTO, lEnd)
			g.b.Label(lElse)
			if err := g.stmt(s.Else); err != nil {
				return err
			}
		}
		g.b.Label(lEnd)
		return nil
	case *whileStmt:
		lCond := g.newLabel("wcond")
		lBody := g.newLabel("wbody")
		lEnd := g.newLabel("wend")
		g.b.Label(lCond)
		if err := g.cond(s.Cond, lBody, lEnd); err != nil {
			return err
		}
		g.b.Label(lBody)
		g.loops = append(g.loops, loopLabels{brk: lEnd, cont: lCond})
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.loops = g.loops[:len(g.loops)-1]
		g.b.Branch(bytecode.GOTO, lCond)
		g.b.Label(lEnd)
		return nil
	case *forStmt:
		lCond := g.newLabel("fcond")
		lBody := g.newLabel("fbody")
		lPost := g.newLabel("fpost")
		lEnd := g.newLabel("fend")
		if s.Init != nil {
			if err := g.stmt(s.Init); err != nil {
				return err
			}
		}
		g.b.Label(lCond)
		if s.Cond != nil {
			if err := g.cond(s.Cond, lBody, lEnd); err != nil {
				return err
			}
		} else {
			g.b.Branch(bytecode.GOTO, lBody)
		}
		g.b.Label(lBody)
		g.loops = append(g.loops, loopLabels{brk: lEnd, cont: lPost})
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.loops = g.loops[:len(g.loops)-1]
		g.b.Label(lPost)
		if s.Post != nil {
			if err := g.stmt(s.Post); err != nil {
				return err
			}
		}
		g.b.Branch(bytecode.GOTO, lCond)
		g.b.Label(lEnd)
		return nil
	case *returnStmt:
		if s.Value != nil {
			if err := g.expr(s.Value); err != nil {
				return err
			}
		}
		g.ret(g.fn.Ret)
		return nil
	case *breakStmt:
		if len(g.loops) == 0 {
			return errf(s.Pos.Line, s.Pos.Col, "break outside loop")
		}
		g.b.Branch(bytecode.GOTO, g.loops[len(g.loops)-1].brk)
		return nil
	case *continueStmt:
		if len(g.loops) == 0 {
			return errf(s.Pos.Line, s.Pos.Col, "continue outside loop")
		}
		g.b.Branch(bytecode.GOTO, g.loops[len(g.loops)-1].cont)
		return nil
	case *printStmt:
		if err := g.expr(s.Value); err != nil {
			return err
		}
		if s.Value.typ() == tyFloat {
			g.b.Emit(bytecode.PRINTF)
		} else {
			g.b.Emit(bytecode.PRINTI)
		}
		return nil
	case *exprStmt:
		call := s.X.(*callExpr)
		if err := g.expr(call); err != nil {
			return err
		}
		switch call.typ() {
		case tyVoid:
		case tyFloat:
			g.b.Emit(bytecode.FPOP)
		default:
			g.b.Emit(bytecode.POP)
		}
		return nil
	}
	return fmt.Errorf("jolt: unknown statement %T", s)
}

func (g *generator) store(global bool, slot int32, t typeKind) {
	switch {
	case global && t == tyFloat:
		g.b.EmitA(bytecode.GFSTORE, slot)
	case global:
		g.b.EmitA(bytecode.GISTORE, slot)
	case t == tyFloat:
		g.b.EmitA(bytecode.FSTORE, slot)
	default:
		g.b.EmitA(bytecode.ISTORE, slot)
	}
}

func (g *generator) load(global bool, slot int32, t typeKind) {
	switch {
	case global && t == tyFloat:
		g.b.EmitA(bytecode.GFLOAD, slot)
	case global:
		g.b.EmitA(bytecode.GILOAD, slot)
	case t == tyFloat:
		g.b.EmitA(bytecode.FLOAD, slot)
	default:
		g.b.EmitA(bytecode.ILOAD, slot)
	}
}

// expr emits code leaving the expression's value on the stack.
func (g *generator) expr(e expr) error {
	switch e := e.(type) {
	case *intLit:
		g.b.IConst(e.Value)
		return nil
	case *floatLit:
		g.b.FConst(e.Value)
		return nil
	case *boolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		g.b.IConst(v)
		return nil
	case *ident:
		g.load(e.Global, e.Slot, e.typ())
		return nil
	case *indexExpr:
		if err := g.expr(e.Arr); err != nil {
			return err
		}
		if err := g.expr(e.Index); err != nil {
			return err
		}
		if e.typ() == tyFloat {
			g.b.Emit(bytecode.FALOAD)
		} else {
			g.b.Emit(bytecode.IALOAD)
		}
		return nil
	case *callExpr:
		for _, a := range e.Args {
			if err := g.expr(a); err != nil {
				return err
			}
		}
		g.b.EmitA(bytecode.CALL, int32(e.FnIndex+g.fnIndexOffset))
		return nil
	case *newArrayExpr:
		if err := g.expr(e.Size); err != nil {
			return err
		}
		if e.ElemFloat {
			g.b.Emit(bytecode.NEWARRF)
		} else {
			g.b.Emit(bytecode.NEWARRI)
		}
		return nil
	case *lenExpr:
		if err := g.expr(e.Arr); err != nil {
			return err
		}
		g.b.Emit(bytecode.ALEN)
		return nil
	case *convExpr:
		if err := g.expr(e.X); err != nil {
			return err
		}
		from := e.X.typ()
		switch {
		case e.ToFloat && from == tyInt:
			g.b.Emit(bytecode.I2F)
		case !e.ToFloat && from == tyFloat:
			g.b.Emit(bytecode.F2I)
		}
		return nil
	case *unaryExpr:
		if e.Op == tokMinus {
			if err := g.expr(e.X); err != nil {
				return err
			}
			if e.typ() == tyFloat {
				g.b.Emit(bytecode.FNEG)
			} else {
				g.b.Emit(bytecode.INEG)
			}
			return nil
		}
		// Boolean not: materialize via the condition path.
		return g.materializeBool(e)
	case *binaryExpr:
		switch e.Op {
		case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokAmp, tokPipe, tokCaret, tokShl, tokShr:
			if err := g.expr(e.X); err != nil {
				return err
			}
			if err := g.expr(e.Y); err != nil {
				return err
			}
			g.arith(e.Op, e.typ())
			return nil
		default:
			// Comparison or logic: bool-valued.
			return g.materializeBool(e)
		}
	}
	return fmt.Errorf("jolt: unknown expression %T", e)
}

func (g *generator) arith(op tokKind, t typeKind) {
	if t == tyFloat {
		switch op {
		case tokPlus:
			g.b.Emit(bytecode.FADD)
		case tokMinus:
			g.b.Emit(bytecode.FSUB)
		case tokStar:
			g.b.Emit(bytecode.FMUL)
		case tokSlash:
			g.b.Emit(bytecode.FDIV)
		}
		return
	}
	switch op {
	case tokPlus:
		g.b.Emit(bytecode.IADD)
	case tokMinus:
		g.b.Emit(bytecode.ISUB)
	case tokStar:
		g.b.Emit(bytecode.IMUL)
	case tokSlash:
		g.b.Emit(bytecode.IDIV)
	case tokPercent:
		g.b.Emit(bytecode.IREM)
	case tokAmp:
		g.b.Emit(bytecode.IAND)
	case tokPipe:
		g.b.Emit(bytecode.IOR)
	case tokCaret:
		g.b.Emit(bytecode.IXOR)
	case tokShl:
		g.b.Emit(bytecode.ISHL)
	case tokShr:
		g.b.Emit(bytecode.ISHR)
	}
}

// materializeBool evaluates a bool expression to a 0/1 value via branches.
func (g *generator) materializeBool(e expr) error {
	lT := g.newLabel("bt")
	lF := g.newLabel("bf")
	lEnd := g.newLabel("bend")
	if err := g.cond(e, lT, lF); err != nil {
		return err
	}
	g.b.Label(lT)
	g.b.IConst(1)
	g.b.Branch(bytecode.GOTO, lEnd)
	g.b.Label(lF)
	g.b.IConst(0)
	g.b.Label(lEnd)
	return nil
}

// cond emits code branching to lTrue or lFalse according to the bool
// expression, with short-circuit && and ||. Control always leaves via an
// explicit branch.
func (g *generator) cond(e expr, lTrue, lFalse string) error {
	switch e := e.(type) {
	case *boolLit:
		if e.Value {
			g.b.Branch(bytecode.GOTO, lTrue)
		} else {
			g.b.Branch(bytecode.GOTO, lFalse)
		}
		return nil
	case *unaryExpr:
		if e.Op == tokNot {
			return g.cond(e.X, lFalse, lTrue)
		}
	case *binaryExpr:
		switch e.Op {
		case tokAndAnd:
			mid := g.newLabel("and")
			if err := g.cond(e.X, mid, lFalse); err != nil {
				return err
			}
			g.b.Label(mid)
			return g.cond(e.Y, lTrue, lFalse)
		case tokOrOr:
			mid := g.newLabel("or")
			if err := g.cond(e.X, lTrue, mid); err != nil {
				return err
			}
			g.b.Label(mid)
			return g.cond(e.Y, lTrue, lFalse)
		case tokLt, tokLe, tokGt, tokGe, tokEqEq, tokNotEq:
			if err := g.expr(e.X); err != nil {
				return err
			}
			if err := g.expr(e.Y); err != nil {
				return err
			}
			isFloat := e.X.typ() == tyFloat
			g.b.Branch(cmpOp(e.Op, isFloat), lTrue)
			g.b.Branch(bytecode.GOTO, lFalse)
			return nil
		}
	}
	// Generic bool value: compare against zero.
	if err := g.expr(e); err != nil {
		return err
	}
	g.b.IConst(0)
	g.b.Branch(bytecode.IFICMPNE, lTrue)
	g.b.Branch(bytecode.GOTO, lFalse)
	return nil
}

func cmpOp(op tokKind, isFloat bool) bytecode.Op {
	if isFloat {
		switch op {
		case tokLt:
			return bytecode.IFFCMPLT
		case tokLe:
			return bytecode.IFFCMPLE
		case tokGt:
			return bytecode.IFFCMPGT
		case tokGe:
			return bytecode.IFFCMPGE
		case tokEqEq:
			return bytecode.IFFCMPEQ
		case tokNotEq:
			return bytecode.IFFCMPNE
		}
	}
	switch op {
	case tokLt:
		return bytecode.IFICMPLT
	case tokLe:
		return bytecode.IFICMPLE
	case tokGt:
		return bytecode.IFICMPGT
	case tokGe:
		return bytecode.IFICMPGE
	case tokEqEq:
		return bytecode.IFICMPEQ
	case tokNotEq:
		return bytecode.IFICMPNE
	}
	panic("jolt: not a comparison")
}
