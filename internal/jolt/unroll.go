package jolt

import "fmt"

// Loop unrolling, an AST-level optimization pass run between parsing and
// checking. Unrolling grows basic blocks — exactly the blocks where list
// scheduling has room to work — so it both speeds programs up and enriches
// the population of blocks that benefit from scheduling.
//
// Only provably safe counted loops are transformed:
//
//	for (var i int = E; i < LIMIT; i = i + 1) { BODY }
//
// where BODY contains no break/continue/return, never assigns i, and LIMIT
// is an integer literal, a variable the body never assigns, or len(v) of
// such a variable. The rewrite evaluates LIMIT once and splits the loop
// into a k-wide main loop plus a remainder loop:
//
//	var i int = E;
//	var $lim int = LIMIT;
//	while (i + (k-1) < $lim) { BODY; i=i+1; ... k times ... }
//	while (i < $lim) { BODY; i = i + 1; }

// unroll rewrites every eligible counted for-loop in the program with the
// given unroll factor (k >= 2). It returns the number of loops unrolled.
func unroll(prog *program, factor int) int {
	if factor < 2 {
		return 0
	}
	u := &unroller{factor: factor}
	for _, f := range prog.Funcs {
		u.block(f.Body)
	}
	return u.count
}

type unroller struct {
	factor int
	count  int
	fresh  int
}

func (u *unroller) freshName() string {
	u.fresh++
	return fmt.Sprintf("$unroll%d", u.fresh)
}

func (u *unroller) block(b *blockStmt) {
	for i, s := range b.Stmts {
		b.Stmts[i] = u.stmt(s)
	}
}

func (u *unroller) stmt(s stmt) stmt {
	switch s := s.(type) {
	case *blockStmt:
		u.block(s)
		return s
	case *ifStmt:
		u.block(s.Then)
		if s.Else != nil {
			s.Else = u.stmt(s.Else)
		}
		return s
	case *whileStmt:
		u.block(s.Body)
		return s
	case *forStmt:
		u.block(s.Body)
		if out := u.tryUnroll(s); out != nil {
			u.count++
			return out
		}
		return s
	}
	return s
}

// tryUnroll returns the replacement statement, or nil if the loop does not
// match the safe pattern.
func (u *unroller) tryUnroll(f *forStmt) stmt {
	// Pattern: init is `var i int = E`.
	init, ok := f.Init.(*varStmt)
	if !ok || init.Type != tyInt || init.Init == nil {
		return nil
	}
	iName := init.Name
	// Pattern: cond is `i < LIMIT`.
	cond, ok := f.Cond.(*binaryExpr)
	if !ok || cond.Op != tokLt {
		return nil
	}
	if id, ok := cond.X.(*ident); !ok || id.Name != iName {
		return nil
	}
	// Pattern: post is `i = i + 1`.
	if !isIncrementByOne(f.Post, iName) {
		return nil
	}
	if !safeBody(f.Body, iName) {
		return nil
	}
	limitOK, limitVars := simpleLimit(cond.Y)
	if !limitOK {
		return nil
	}
	for _, v := range limitVars {
		if assignsTo(f.Body, v) {
			return nil
		}
	}

	k := u.factor
	limName := u.freshName()
	pos := f.Pos

	outer := &blockStmt{Pos: pos}
	outer.Stmts = append(outer.Stmts,
		&varStmt{Pos: pos, Name: iName, Type: tyInt, Init: cloneExpr(init.Init)},
		&varStmt{Pos: pos, Name: limName, Type: tyInt, Init: cloneExpr(cond.Y)},
	)

	iRef := func() expr { return &ident{exprBase: exprBase{Pos: pos}, Name: iName} }
	limRef := func() expr { return &ident{exprBase: exprBase{Pos: pos}, Name: limName} }
	inc := func() stmt {
		return &assignStmt{Pos: pos, LHS: iRef(), RHS: &binaryExpr{
			exprBase: exprBase{Pos: pos}, Op: tokPlus, X: iRef(),
			Y: &intLit{exprBase: exprBase{Pos: pos}, Value: 1},
		}}
	}

	// while (i + (k-1) < $lim) { body; i=i+1; ... }
	mainCond := &binaryExpr{
		exprBase: exprBase{Pos: pos}, Op: tokLt,
		X: &binaryExpr{exprBase: exprBase{Pos: pos}, Op: tokPlus, X: iRef(),
			Y: &intLit{exprBase: exprBase{Pos: pos}, Value: int64(k - 1)}},
		Y: limRef(),
	}
	mainBody := &blockStmt{Pos: pos}
	for rep := 0; rep < k; rep++ {
		mainBody.Stmts = append(mainBody.Stmts, cloneBlock(f.Body), inc())
	}
	outer.Stmts = append(outer.Stmts, &whileStmt{Pos: pos, Cond: mainCond, Body: mainBody})

	// Remainder: while (i < $lim) { body; i=i+1; }
	remBody := &blockStmt{Pos: pos}
	remBody.Stmts = append(remBody.Stmts, cloneBlock(f.Body), inc())
	remCond := &binaryExpr{exprBase: exprBase{Pos: pos}, Op: tokLt, X: iRef(), Y: limRef()}
	outer.Stmts = append(outer.Stmts, &whileStmt{Pos: pos, Cond: remCond, Body: remBody})

	return outer
}

func isIncrementByOne(s stmt, name string) bool {
	a, ok := s.(*assignStmt)
	if !ok {
		return false
	}
	lhs, ok := a.LHS.(*ident)
	if !ok || lhs.Name != name {
		return false
	}
	add, ok := a.RHS.(*binaryExpr)
	if !ok || add.Op != tokPlus {
		return false
	}
	x, ok := add.X.(*ident)
	if !ok || x.Name != name {
		return false
	}
	one, ok := add.Y.(*intLit)
	return ok && one.Value == 1
}

// simpleLimit reports whether the loop bound is safe to evaluate once, and
// which variables its value depends on.
func simpleLimit(e expr) (bool, []string) {
	switch e := e.(type) {
	case *intLit:
		return true, nil
	case *ident:
		return true, []string{e.Name}
	case *lenExpr:
		if id, ok := e.Arr.(*ident); ok {
			return true, []string{id.Name}
		}
	case *binaryExpr:
		// Allow simple arithmetic over safe sub-limits (e.g. n-1, n/2).
		switch e.Op {
		case tokPlus, tokMinus, tokStar, tokSlash:
			okX, vx := simpleLimit(e.X)
			okY, vy := simpleLimit(e.Y)
			if okX && okY {
				return true, append(vx, vy...)
			}
		}
	}
	return false, nil
}

// safeBody reports whether the loop body avoids break/continue/return,
// never writes the induction variable, and declares no variable shadowing
// it (a shadow would change which i the increment sees after inlining the
// body copies into one scope... the copies keep their own scopes, but the
// induction increment between copies must see the loop's i).
func safeBody(b *blockStmt, iName string) bool {
	safe := true
	var walkStmt func(stmt)
	var walkBlock func(*blockStmt)
	walkBlock = func(bb *blockStmt) {
		for _, s := range bb.Stmts {
			walkStmt(s)
		}
	}
	walkStmt = func(s stmt) {
		switch s := s.(type) {
		case *blockStmt:
			walkBlock(s)
		case *varStmt:
			if s.Name == iName {
				safe = false
			}
		case *assignStmt:
			if id, ok := s.LHS.(*ident); ok && id.Name == iName {
				safe = false
			}
		case *ifStmt:
			walkBlock(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *whileStmt:
			walkBlock(s.Body)
		case *forStmt:
			// A nested for re-binding the same induction name is its
			// own scope; nested loops are fine, but a nested loop's
			// break/continue is also fine (it targets the inner
			// loop). Recurse only for assignments to our i.
			if init, ok := s.Init.(*varStmt); !ok || init.Name != iName {
				if s.Init != nil {
					walkStmt(s.Init)
				}
				if s.Post != nil {
					walkStmt(s.Post)
				}
				walkBlock(s.Body)
			}
		case *breakStmt, *continueStmt, *returnStmt:
			safe = false
		}
	}
	walkBlock(b)
	return safe
}

// assignsTo reports whether the body assigns to the named variable (or
// declares a shadowing one, which would make the hoisted limit diverge).
func assignsTo(b *blockStmt, name string) bool {
	found := false
	var walkStmt func(stmt)
	var walkBlock func(*blockStmt)
	walkBlock = func(bb *blockStmt) {
		for _, s := range bb.Stmts {
			walkStmt(s)
		}
	}
	walkStmt = func(s stmt) {
		switch s := s.(type) {
		case *blockStmt:
			walkBlock(s)
		case *varStmt:
			if s.Name == name {
				found = true
			}
		case *assignStmt:
			if id, ok := s.LHS.(*ident); ok && id.Name == name {
				found = true
			}
		case *ifStmt:
			walkBlock(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *whileStmt:
			walkBlock(s.Body)
		case *forStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			if s.Post != nil {
				walkStmt(s.Post)
			}
			walkBlock(s.Body)
		}
	}
	walkBlock(b)
	return found
}
