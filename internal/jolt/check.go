package jolt

import "fmt"

// check type-checks the program, resolving identifiers to global/local
// slots and call targets to function indices, and annotating every
// expression with its type. It returns the symbol information the code
// generator needs.
func check(prog *program) (*checkInfo, error) {
	c := &checker{
		info:    &checkInfo{GlobalIndex: map[string]int{}, FuncIndex: map[string]int{}},
		globals: map[string]globalSym{},
	}
	return c.run(prog)
}

// checkInfo carries resolution results from the checker to the code generator.
type checkInfo struct {
	// GlobalIndex maps global names to slot numbers, in declaration
	// order.
	GlobalIndex map[string]int
	// GlobalTypes lists global slot types in order.
	GlobalTypes []typeKind
	// FuncIndex maps function names to indices in declaration order.
	FuncIndex map[string]int
	// LocalSlots maps each function to its local-slot types; the
	// checker assigns ident.Slot values referring to these.
	LocalSlots map[*funcDecl][]typeKind
}

type globalSym struct {
	slot int
	ty   typeKind
}

type localSym struct {
	slot int32
	ty   typeKind
}

type checker struct {
	info    *checkInfo
	globals map[string]globalSym
	funcs   []*funcDecl

	// Per-function state.
	fn     *funcDecl
	scopes []map[string]localSym
	slots  []typeKind
}

func (c *checker) errAt(p pos, format string, args ...any) error {
	return errf(p.Line, p.Col, format, args...)
}

func (c *checker) run(prog *program) (*checkInfo, error) {
	c.info.LocalSlots = make(map[*funcDecl][]typeKind)

	// Pass 1: globals and function signatures.
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return nil, c.errAt(g.Pos, "global %q redeclared", g.Name)
		}
		if g.Type == tyVoid {
			return nil, c.errAt(g.Pos, "global %q cannot be void", g.Name)
		}
		if g.Init != nil {
			want := g.Type
			switch lit := g.Init.(type) {
			case *intLit:
				if want != tyInt {
					return nil, c.errAt(g.Pos, "global %q: int initializer for %s", g.Name, want)
				}
				lit.Ty = tyInt
			case *floatLit:
				if want != tyFloat {
					return nil, c.errAt(g.Pos, "global %q: float initializer for %s", g.Name, want)
				}
				lit.Ty = tyFloat
			case *boolLit:
				if want != tyBool {
					return nil, c.errAt(g.Pos, "global %q: bool initializer for %s", g.Name, want)
				}
				lit.Ty = tyBool
			default:
				return nil, c.errAt(g.Pos, "global %q: initializer must be a literal", g.Name)
			}
		}
		slot := len(c.info.GlobalTypes)
		c.globals[g.Name] = globalSym{slot: slot, ty: g.Type}
		c.info.GlobalIndex[g.Name] = slot
		c.info.GlobalTypes = append(c.info.GlobalTypes, g.Type)
	}
	for i, f := range prog.Funcs {
		if _, dup := c.info.FuncIndex[f.Name]; dup {
			return nil, c.errAt(f.Pos, "function %q redeclared", f.Name)
		}
		if _, shadow := c.globals[f.Name]; shadow {
			return nil, c.errAt(f.Pos, "function %q collides with a global", f.Name)
		}
		c.info.FuncIndex[f.Name] = i
	}
	c.funcs = prog.Funcs

	// Pass 2: bodies.
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return nil, err
		}
	}

	// Entry point.
	mi, ok := c.info.FuncIndex["main"]
	if !ok {
		return nil, fmt.Errorf("jolt: program has no main function")
	}
	mf := prog.Funcs[mi]
	if len(mf.Params) != 0 || mf.Ret != tyInt {
		return nil, c.errAt(mf.Pos, "main must be 'func main() int'")
	}
	return c.info, nil
}

func (c *checker) checkFunc(f *funcDecl) error {
	c.fn = f
	c.scopes = []map[string]localSym{{}}
	c.slots = nil
	for _, p := range f.Params {
		if p.Type == tyVoid {
			return c.errAt(p.Pos, "parameter %q cannot be void", p.Name)
		}
		if err := c.declare(p.Pos, p.Name, p.Type); err != nil {
			return err
		}
	}
	if err := c.checkBlock(f.Body); err != nil {
		return err
	}
	if f.Ret != tyVoid && !alwaysReturns(f.Body) {
		return c.errAt(f.Pos, "function %q: missing return on some path", f.Name)
	}
	c.info.LocalSlots[f] = c.slots
	return nil
}

func (c *checker) declare(p pos, name string, ty typeKind) error {
	scope := c.scopes[len(c.scopes)-1]
	if _, dup := scope[name]; dup {
		return c.errAt(p, "%q redeclared in this scope", name)
	}
	slot := int32(len(c.slots))
	c.slots = append(c.slots, ty)
	scope[name] = localSym{slot: slot, ty: ty}
	return nil
}

func (c *checker) lookup(name string) (localSym, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return localSym{}, false
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]localSym{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) checkBlock(b *blockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s stmt) error {
	switch s := s.(type) {
	case *blockStmt:
		return c.checkBlock(s)
	case *varStmt:
		if s.Type == tyVoid {
			return c.errAt(s.Pos, "variable %q cannot be void", s.Name)
		}
		if s.Init != nil {
			ty, err := c.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if ty != s.Type {
				return c.errAt(s.Pos, "cannot initialize %s %q with %s", s.Type, s.Name, ty)
			}
		}
		if err := c.declare(s.Pos, s.Name, s.Type); err != nil {
			return err
		}
		s.Slot = int32(len(c.slots) - 1)
		return nil
	case *assignStmt:
		lty, err := c.checkLValue(s.LHS)
		if err != nil {
			return err
		}
		rty, err := c.checkExpr(s.RHS)
		if err != nil {
			return err
		}
		if lty != rty {
			return c.errAt(s.Pos, "cannot assign %s to %s", rty, lty)
		}
		return nil
	case *ifStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *whileStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		return c.checkBlock(s.Body)
	case *forStmt:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.checkCond(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.checkStmt(s.Post); err != nil {
				return err
			}
		}
		return c.checkBlock(s.Body)
	case *returnStmt:
		if c.fn.Ret == tyVoid {
			if s.Value != nil {
				return c.errAt(s.Pos, "void function returns a value")
			}
			return nil
		}
		if s.Value == nil {
			return c.errAt(s.Pos, "missing return value (%s expected)", c.fn.Ret)
		}
		ty, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if ty != c.fn.Ret {
			return c.errAt(s.Pos, "returning %s from %s function", ty, c.fn.Ret)
		}
		return nil
	case *breakStmt, *continueStmt:
		// Loop nesting is validated by the code generator, which owns
		// the loop-label stack.
		return nil
	case *printStmt:
		ty, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if ty != tyInt && ty != tyFloat && ty != tyBool {
			return c.errAt(s.Pos, "cannot print %s", ty)
		}
		return nil
	case *exprStmt:
		call, ok := s.X.(*callExpr)
		if !ok {
			return c.errAt(s.Pos, "expression statement must be a call")
		}
		_, err := c.checkExpr(call)
		return err
	}
	return fmt.Errorf("jolt: unknown statement %T", s)
}

func (c *checker) checkCond(e expr) error {
	ty, err := c.checkExpr(e)
	if err != nil {
		return err
	}
	if ty != tyBool {
		return c.errAt(e.exprPos(), "condition must be bool, got %s", ty)
	}
	return nil
}

func (c *checker) checkLValue(e expr) (typeKind, error) {
	switch e := e.(type) {
	case *ident:
		return c.checkExpr(e)
	case *indexExpr:
		return c.checkExpr(e)
	}
	return tyVoid, c.errAt(e.exprPos(), "not an assignable location")
}

func (c *checker) checkExpr(e expr) (typeKind, error) {
	switch e := e.(type) {
	case *intLit:
		e.Ty = tyInt
		return tyInt, nil
	case *floatLit:
		e.Ty = tyFloat
		return tyFloat, nil
	case *boolLit:
		e.Ty = tyBool
		return tyBool, nil
	case *ident:
		if s, ok := c.lookup(e.Name); ok {
			e.Global = false
			e.Slot = s.slot
			e.Ty = s.ty
			return s.ty, nil
		}
		if g, ok := c.globals[e.Name]; ok {
			e.Global = true
			e.Slot = int32(g.slot)
			e.Ty = g.ty
			return g.ty, nil
		}
		return tyVoid, c.errAt(e.Pos, "undefined: %q", e.Name)
	case *indexExpr:
		aty, err := c.checkExpr(e.Arr)
		if err != nil {
			return tyVoid, err
		}
		if !aty.isArray() {
			return tyVoid, c.errAt(e.Pos, "indexing non-array %s", aty)
		}
		ity, err := c.checkExpr(e.Index)
		if err != nil {
			return tyVoid, err
		}
		if ity != tyInt {
			return tyVoid, c.errAt(e.Pos, "array index must be int, got %s", ity)
		}
		e.Ty = aty.elem()
		return e.Ty, nil
	case *callExpr:
		fi, ok := c.info.FuncIndex[e.Name]
		if !ok {
			return tyVoid, c.errAt(e.Pos, "undefined function %q", e.Name)
		}
		callee := c.funcs[fi]
		if len(e.Args) != len(callee.Params) {
			return tyVoid, c.errAt(e.Pos, "%q takes %d arguments, got %d", e.Name, len(callee.Params), len(e.Args))
		}
		for i, a := range e.Args {
			aty, err := c.checkExpr(a)
			if err != nil {
				return tyVoid, err
			}
			if aty != callee.Params[i].Type {
				return tyVoid, c.errAt(a.exprPos(), "argument %d of %q: have %s, want %s", i+1, e.Name, aty, callee.Params[i].Type)
			}
		}
		e.FnIndex = fi
		e.Ty = callee.Ret
		return callee.Ret, nil
	case *newArrayExpr:
		sty, err := c.checkExpr(e.Size)
		if err != nil {
			return tyVoid, err
		}
		if sty != tyInt {
			return tyVoid, c.errAt(e.Pos, "array size must be int, got %s", sty)
		}
		if e.ElemFloat {
			e.Ty = tyFloatArr
		} else {
			e.Ty = tyIntArr
		}
		return e.Ty, nil
	case *lenExpr:
		aty, err := c.checkExpr(e.Arr)
		if err != nil {
			return tyVoid, err
		}
		if !aty.isArray() {
			return tyVoid, c.errAt(e.Pos, "len of non-array %s", aty)
		}
		e.Ty = tyInt
		return tyInt, nil
	case *convExpr:
		xty, err := c.checkExpr(e.X)
		if err != nil {
			return tyVoid, err
		}
		if xty != tyInt && xty != tyFloat {
			return tyVoid, c.errAt(e.Pos, "cannot convert %s", xty)
		}
		if e.ToFloat {
			e.Ty = tyFloat
		} else {
			e.Ty = tyInt
		}
		return e.Ty, nil
	case *unaryExpr:
		xty, err := c.checkExpr(e.X)
		if err != nil {
			return tyVoid, err
		}
		switch e.Op {
		case tokMinus:
			if xty != tyInt && xty != tyFloat {
				return tyVoid, c.errAt(e.Pos, "cannot negate %s", xty)
			}
			e.Ty = xty
		case tokNot:
			if xty != tyBool {
				return tyVoid, c.errAt(e.Pos, "'!' needs bool, got %s", xty)
			}
			e.Ty = tyBool
		default:
			return tyVoid, c.errAt(e.Pos, "bad unary operator")
		}
		return e.Ty, nil
	case *binaryExpr:
		xty, err := c.checkExpr(e.X)
		if err != nil {
			return tyVoid, err
		}
		yty, err := c.checkExpr(e.Y)
		if err != nil {
			return tyVoid, err
		}
		switch e.Op {
		case tokPlus, tokMinus, tokStar, tokSlash:
			if xty != yty || (xty != tyInt && xty != tyFloat) {
				return tyVoid, c.errAt(e.Pos, "invalid operands %s and %s", xty, yty)
			}
			e.Ty = xty
		case tokPercent, tokAmp, tokPipe, tokCaret, tokShl, tokShr:
			if xty != tyInt || yty != tyInt {
				return tyVoid, c.errAt(e.Pos, "integer operator needs int operands, got %s and %s", xty, yty)
			}
			e.Ty = tyInt
		case tokLt, tokLe, tokGt, tokGe:
			if xty != yty || (xty != tyInt && xty != tyFloat) {
				return tyVoid, c.errAt(e.Pos, "cannot compare %s and %s", xty, yty)
			}
			e.Ty = tyBool
		case tokEqEq, tokNotEq:
			if xty != yty || xty.isArray() {
				return tyVoid, c.errAt(e.Pos, "cannot compare %s and %s", xty, yty)
			}
			e.Ty = tyBool
		case tokAndAnd, tokOrOr:
			if xty != tyBool || yty != tyBool {
				return tyVoid, c.errAt(e.Pos, "logical operator needs bool operands, got %s and %s", xty, yty)
			}
			e.Ty = tyBool
		default:
			return tyVoid, c.errAt(e.Pos, "bad binary operator")
		}
		return e.Ty, nil
	}
	return tyVoid, fmt.Errorf("jolt: unknown expression %T", e)
}

// alwaysReturns reports whether every path through the statement returns.
func alwaysReturns(s stmt) bool {
	switch s := s.(type) {
	case *returnStmt:
		return true
	case *blockStmt:
		for _, inner := range s.Stmts {
			if alwaysReturns(inner) {
				return true
			}
		}
		return false
	case *ifStmt:
		return s.Else != nil && alwaysReturns(s.Then) && alwaysReturns(s.Else)
	}
	return false
}
