package jolt

// parse builds the AST of a Jolt source file.
func parse(src string) (*program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.program()
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k tokKind) bool { return p.cur().Kind == k }

func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Line, t.Col, "expected %s, found %s", k.name(), t.describe())
	}
	p.next()
	return t, nil
}

func tokPos(t token) pos { return pos{Line: t.Line, Col: t.Col} }

func (p *parser) program() (*program, error) {
	prog := &program{}
	for !p.at(tokEOF) {
		switch p.cur().Kind {
		case kwVar:
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, g)
		case kwFunc:
			f, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			t := p.cur()
			return nil, errf(t.Line, t.Col, "expected 'var' or 'func' at top level, found %s", t.describe())
		}
	}
	return prog, nil
}

// typeName parses int, float, bool, int[], float[].
func (p *parser) typeName() (typeKind, error) {
	t := p.cur()
	var base typeKind
	switch t.Kind {
	case kwInt:
		base = tyInt
	case kwFloat:
		base = tyFloat
	case kwBool:
		base = tyBool
	default:
		return tyVoid, errf(t.Line, t.Col, "expected a type, found %s", t.describe())
	}
	p.next()
	if p.accept(tokLBrack) {
		if _, err := p.expect(tokRBrack); err != nil {
			return tyVoid, err
		}
		switch base {
		case tyInt:
			return tyIntArr, nil
		case tyFloat:
			return tyFloatArr, nil
		default:
			return tyVoid, errf(t.Line, t.Col, "bool arrays are not supported")
		}
	}
	return base, nil
}

func (p *parser) globalDecl() (*globalDecl, error) {
	kw, _ := p.expect(kwVar)
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	ty, err := p.typeName()
	if err != nil {
		return nil, err
	}
	g := &globalDecl{Pos: tokPos(kw), Name: name.Text, Type: ty}
	if p.accept(tokAssign) {
		init, err := p.literal()
		if err != nil {
			return nil, err
		}
		g.Init = init
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return g, nil
}

// literal parses a constant initializer: possibly-negated numeric literal
// or a bool literal.
func (p *parser) literal() (expr, error) {
	t := p.cur()
	neg := false
	if p.accept(tokMinus) {
		neg = true
		t = p.cur()
	}
	switch t.Kind {
	case tokIntLit:
		p.next()
		v := t.Int
		if neg {
			v = -v
		}
		return &intLit{exprBase: exprBase{Pos: tokPos(t)}, Value: v}, nil
	case tokFloatLit:
		p.next()
		v := t.Flt
		if neg {
			v = -v
		}
		return &floatLit{exprBase: exprBase{Pos: tokPos(t)}, Value: v}, nil
	case kwTrue, kwFalse:
		if neg {
			return nil, errf(t.Line, t.Col, "cannot negate a bool literal")
		}
		p.next()
		return &boolLit{exprBase: exprBase{Pos: tokPos(t)}, Value: t.Kind == kwTrue}, nil
	}
	return nil, errf(t.Line, t.Col, "expected a constant initializer, found %s", t.describe())
}

func (p *parser) funcDecl() (*funcDecl, error) {
	kw, _ := p.expect(kwFunc)
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	f := &funcDecl{Pos: tokPos(kw), Name: name.Text, Ret: tyVoid}
	for !p.at(tokRParen) {
		if len(f.Params) > 0 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		pt, err := p.typeName()
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, param{Pos: tokPos(pn), Name: pn.Text, Type: pt})
	}
	p.next() // RParen
	if !p.at(tokLBrace) {
		ret, err := p.typeName()
		if err != nil {
			return nil, err
		}
		f.Ret = ret
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *parser) block() (*blockStmt, error) {
	lb, err := p.expect(tokLBrace)
	if err != nil {
		return nil, err
	}
	b := &blockStmt{Pos: tokPos(lb)}
	for !p.at(tokRBrace) {
		if p.at(tokEOF) {
			return nil, errf(lb.Line, lb.Col, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // RBrace
	return b, nil
}

func (p *parser) stmt() (stmt, error) {
	t := p.cur()
	switch t.Kind {
	case tokLBrace:
		return p.block()
	case kwVar:
		s, err := p.varStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return s, nil
	case kwIf:
		return p.ifStmt()
	case kwWhile:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &whileStmt{Pos: tokPos(t), Cond: cond, Body: body}, nil
	case kwFor:
		return p.forStmt()
	case kwReturn:
		p.next()
		s := &returnStmt{Pos: tokPos(t)}
		if !p.at(tokSemi) {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Value = v
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return s, nil
	case kwBreak:
		p.next()
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &breakStmt{Pos: tokPos(t)}, nil
	case kwContinue:
		p.next()
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &continueStmt{Pos: tokPos(t)}, nil
	case kwPrint:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &printStmt{Pos: tokPos(t), Value: v}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) varStmt() (*varStmt, error) {
	kw, _ := p.expect(kwVar)
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	ty, err := p.typeName()
	if err != nil {
		return nil, err
	}
	s := &varStmt{Pos: tokPos(kw), Name: name.Text, Type: ty}
	if p.accept(tokAssign) {
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Init = init
	}
	return s, nil
}

func (p *parser) ifStmt() (stmt, error) {
	kw, _ := p.expect(kwIf)
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &ifStmt{Pos: tokPos(kw), Cond: cond, Then: then}
	if p.accept(kwElse) {
		if p.at(kwIf) {
			els, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			s.Else = els
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
	}
	return s, nil
}

func (p *parser) forStmt() (stmt, error) {
	kw, _ := p.expect(kwFor)
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	s := &forStmt{Pos: tokPos(kw)}
	if !p.at(tokSemi) {
		var err error
		if p.at(kwVar) {
			s.Init, err = p.varStmt()
		} else {
			s.Init, err = p.simpleStmt()
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if !p.at(tokSemi) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if !p.at(tokRParen) {
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// simpleStmt is an assignment or an expression statement.
func (p *parser) simpleStmt() (stmt, error) {
	start := p.cur()
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.accept(tokAssign) {
		switch x.(type) {
		case *ident, *indexExpr:
		default:
			return nil, errf(start.Line, start.Col, "left side of '=' must be a variable or array element")
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &assignStmt{Pos: tokPos(start), LHS: x, RHS: rhs}, nil
	}
	if _, ok := x.(*callExpr); !ok {
		return nil, errf(start.Line, start.Col, "expression statement must be a call")
	}
	return &exprStmt{Pos: tokPos(start), X: x}, nil
}

// Expression grammar, lowest precedence first.

func (p *parser) expr() (expr, error) { return p.orExpr() }

func (p *parser) binaryLevel(ops []tokKind, sub func() (expr, error)) (expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(op) {
				t := p.next()
				y, err := sub()
				if err != nil {
					return nil, err
				}
				x = &binaryExpr{exprBase: exprBase{Pos: tokPos(t)}, Op: op, X: x, Y: y}
				matched = true
				break
			}
		}
		if !matched {
			return x, nil
		}
	}
}

func (p *parser) orExpr() (expr, error) {
	return p.binaryLevel([]tokKind{tokOrOr}, p.andExpr)
}

func (p *parser) andExpr() (expr, error) {
	return p.binaryLevel([]tokKind{tokAndAnd}, p.eqExpr)
}

func (p *parser) eqExpr() (expr, error) {
	return p.binaryLevel([]tokKind{tokEqEq, tokNotEq}, p.relExpr)
}

func (p *parser) relExpr() (expr, error) {
	return p.binaryLevel([]tokKind{tokLe, tokGe, tokLt, tokGt}, p.addExpr)
}

// addExpr follows Go's precedence: | and ^ bind like + and -.
func (p *parser) addExpr() (expr, error) {
	return p.binaryLevel([]tokKind{tokPlus, tokMinus, tokPipe, tokCaret}, p.mulExpr)
}

// mulExpr follows Go's precedence: shifts and & bind like * and /.
func (p *parser) mulExpr() (expr, error) {
	return p.binaryLevel([]tokKind{tokStar, tokSlash, tokPercent, tokShl, tokShr, tokAmp}, p.unaryExpr)
}

func (p *parser) unaryExpr() (expr, error) {
	t := p.cur()
	if t.Kind == tokMinus || t.Kind == tokNot {
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{exprBase: exprBase{Pos: tokPos(t)}, Op: t.Kind, X: x}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(tokLBrack) {
		t := p.next()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		x = &indexExpr{exprBase: exprBase{Pos: tokPos(t)}, Arr: x, Index: idx}
	}
	return x, nil
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch t.Kind {
	case tokIntLit:
		p.next()
		return &intLit{exprBase: exprBase{Pos: tokPos(t)}, Value: t.Int}, nil
	case tokFloatLit:
		p.next()
		return &floatLit{exprBase: exprBase{Pos: tokPos(t)}, Value: t.Flt}, nil
	case kwTrue, kwFalse:
		p.next()
		return &boolLit{exprBase: exprBase{Pos: tokPos(t)}, Value: t.Kind == kwTrue}, nil
	case tokIdent:
		p.next()
		if p.at(tokLParen) {
			return p.callArgs(t)
		}
		return &ident{exprBase: exprBase{Pos: tokPos(t)}, Name: t.Text}, nil
	case tokLParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case kwNew:
		p.next()
		var isFloat bool
		switch p.cur().Kind {
		case kwInt:
			isFloat = false
		case kwFloat:
			isFloat = true
		default:
			return nil, errf(t.Line, t.Col, "expected 'int' or 'float' after 'new'")
		}
		p.next()
		if _, err := p.expect(tokLBrack); err != nil {
			return nil, err
		}
		size, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		return &newArrayExpr{exprBase: exprBase{Pos: tokPos(t)}, ElemFloat: isFloat, Size: size}, nil
	case kwLen:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		arr, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &lenExpr{exprBase: exprBase{Pos: tokPos(t)}, Arr: arr}, nil
	case kwInt, kwFloat:
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &convExpr{exprBase: exprBase{Pos: tokPos(t)}, ToFloat: t.Kind == kwFloat, X: x}, nil
	}
	return nil, errf(t.Line, t.Col, "unexpected %s in expression", t.describe())
}

func (p *parser) callArgs(name token) (expr, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	c := &callExpr{exprBase: exprBase{Pos: tokPos(name)}, Name: name.Text, FnIndex: -1}
	for !p.at(tokRParen) {
		if len(c.Args) > 0 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Args = append(c.Args, a)
	}
	p.next() // RParen
	return c, nil
}
