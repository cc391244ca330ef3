package jolt

// Deep copies of AST nodes, used by the loop unroller to duplicate loop
// bodies. Clones carry the original positions (diagnostics point at the
// source loop) and no checker annotations (cloning happens before check).

// cloneStmt returns a deep copy of a statement.
func cloneStmt(s stmt) stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *blockStmt:
		return cloneBlock(s)
	case *varStmt:
		return &varStmt{Pos: s.Pos, Name: s.Name, Type: s.Type, Init: cloneExpr(s.Init)}
	case *assignStmt:
		return &assignStmt{Pos: s.Pos, LHS: cloneExpr(s.LHS), RHS: cloneExpr(s.RHS)}
	case *ifStmt:
		return &ifStmt{Pos: s.Pos, Cond: cloneExpr(s.Cond), Then: cloneBlock(s.Then), Else: cloneStmt(s.Else)}
	case *whileStmt:
		return &whileStmt{Pos: s.Pos, Cond: cloneExpr(s.Cond), Body: cloneBlock(s.Body)}
	case *forStmt:
		return &forStmt{Pos: s.Pos, Init: cloneStmt(s.Init), Cond: cloneExpr(s.Cond), Post: cloneStmt(s.Post), Body: cloneBlock(s.Body)}
	case *returnStmt:
		return &returnStmt{Pos: s.Pos, Value: cloneExpr(s.Value)}
	case *breakStmt:
		return &breakStmt{Pos: s.Pos}
	case *continueStmt:
		return &continueStmt{Pos: s.Pos}
	case *printStmt:
		return &printStmt{Pos: s.Pos, Value: cloneExpr(s.Value)}
	case *exprStmt:
		return &exprStmt{Pos: s.Pos, X: cloneExpr(s.X)}
	}
	panic("jolt: CloneStmt: unknown statement")
}

// cloneBlock returns a deep copy of a block.
func cloneBlock(b *blockStmt) *blockStmt {
	if b == nil {
		return nil
	}
	nb := &blockStmt{Pos: b.Pos}
	for _, s := range b.Stmts {
		nb.Stmts = append(nb.Stmts, cloneStmt(s))
	}
	return nb
}

// cloneExpr returns a deep copy of an expression.
func cloneExpr(e expr) expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *intLit:
		return &intLit{exprBase: exprBase{Pos: e.Pos}, Value: e.Value}
	case *floatLit:
		return &floatLit{exprBase: exprBase{Pos: e.Pos}, Value: e.Value}
	case *boolLit:
		return &boolLit{exprBase: exprBase{Pos: e.Pos}, Value: e.Value}
	case *ident:
		return &ident{exprBase: exprBase{Pos: e.Pos}, Name: e.Name}
	case *indexExpr:
		return &indexExpr{exprBase: exprBase{Pos: e.Pos}, Arr: cloneExpr(e.Arr), Index: cloneExpr(e.Index)}
	case *callExpr:
		c := &callExpr{exprBase: exprBase{Pos: e.Pos}, Name: e.Name, FnIndex: -1}
		for _, a := range e.Args {
			c.Args = append(c.Args, cloneExpr(a))
		}
		return c
	case *newArrayExpr:
		return &newArrayExpr{exprBase: exprBase{Pos: e.Pos}, ElemFloat: e.ElemFloat, Size: cloneExpr(e.Size)}
	case *lenExpr:
		return &lenExpr{exprBase: exprBase{Pos: e.Pos}, Arr: cloneExpr(e.Arr)}
	case *convExpr:
		return &convExpr{exprBase: exprBase{Pos: e.Pos}, ToFloat: e.ToFloat, X: cloneExpr(e.X)}
	case *unaryExpr:
		return &unaryExpr{exprBase: exprBase{Pos: e.Pos}, Op: e.Op, X: cloneExpr(e.X)}
	case *binaryExpr:
		return &binaryExpr{exprBase: exprBase{Pos: e.Pos}, Op: e.Op, X: cloneExpr(e.X), Y: cloneExpr(e.Y)}
	}
	panic("jolt: CloneExpr: unknown expression")
}
