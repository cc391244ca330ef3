package jolt

// The AST. Every node carries its source position for diagnostics.

// typeKind is a Jolt source-level type.
type typeKind uint8

const (
	tyVoid typeKind = iota
	tyInt
	tyFloat
	tyBool
	tyIntArr
	tyFloatArr
)

func (t typeKind) String() string {
	switch t {
	case tyVoid:
		return "void"
	case tyInt:
		return "int"
	case tyFloat:
		return "float"
	case tyBool:
		return "bool"
	case tyIntArr:
		return "int[]"
	case tyFloatArr:
		return "float[]"
	}
	return "?"
}

// isArray reports whether the type is an array type.
func (t typeKind) isArray() bool { return t == tyIntArr || t == tyFloatArr }

// elem returns an array type's element type.
func (t typeKind) elem() typeKind {
	switch t {
	case tyIntArr:
		return tyInt
	case tyFloatArr:
		return tyFloat
	}
	return tyVoid
}

// pos is a source position.
type pos struct {
	Line, Col int
}

// program is a parsed compilation unit.
type program struct {
	Globals []*globalDecl
	Funcs   []*funcDecl
}

// globalDecl is a top-level variable with an optional constant initializer.
type globalDecl struct {
	Pos  pos
	Name string
	Type typeKind
	// Init is nil or a literal expression (intLit, floatLit, boolLit,
	// possibly negated).
	Init expr
}

// param is a function parameter.
type param struct {
	Pos  pos
	Name string
	Type typeKind
}

// funcDecl is a function definition.
type funcDecl struct {
	Pos    pos
	Name   string
	Params []param
	Ret    typeKind
	Body   *blockStmt
}

// stmt is a statement node.
type stmt interface{ stmtNode() }

// blockStmt is { stmts... }.
type blockStmt struct {
	Pos   pos
	Stmts []stmt
}

// varStmt declares a local: var name type [= init];
type varStmt struct {
	Pos  pos
	Name string
	Type typeKind
	Init expr // may be nil
	// Slot is the local slot the checker assigned.
	Slot int32
}

// assignStmt is lvalue = expr;
type assignStmt struct {
	Pos pos
	// LHS is either *ident or *indexExpr.
	LHS expr
	RHS expr
}

// ifStmt is if (cond) then [else else].
type ifStmt struct {
	Pos  pos
	Cond expr
	Then *blockStmt
	Else stmt // *blockStmt, *ifStmt, or nil
}

// whileStmt is while (cond) body.
type whileStmt struct {
	Pos  pos
	Cond expr
	Body *blockStmt
}

// forStmt is for (init; cond; post) body.
type forStmt struct {
	Pos  pos
	Init stmt // *varStmt, *assignStmt, *exprStmt, or nil
	Cond expr // nil means true
	Post stmt // *assignStmt, *exprStmt, or nil
	Body *blockStmt
}

// returnStmt is return [expr];
type returnStmt struct {
	Pos   pos
	Value expr // nil for void
}

// breakStmt is break;
type breakStmt struct{ Pos pos }

// continueStmt is continue;
type continueStmt struct{ Pos pos }

// printStmt is print(expr);
type printStmt struct {
	Pos   pos
	Value expr
}

// exprStmt is an expression evaluated for effect (a call).
type exprStmt struct {
	Pos pos
	X   expr
}

func (*blockStmt) stmtNode()    {}
func (*varStmt) stmtNode()      {}
func (*assignStmt) stmtNode()   {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*forStmt) stmtNode()      {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}
func (*printStmt) stmtNode()    {}
func (*exprStmt) stmtNode()     {}

// expr is an expression node. The type checker fills in typ().
type expr interface {
	exprNode()
	exprPos() pos
	// typ returns the checked type (valid after check).
	typ() typeKind
}

type exprBase struct {
	Pos pos
	Ty  typeKind
}

func (e *exprBase) exprNode()     {}
func (e *exprBase) exprPos() pos  { return e.Pos }
func (e *exprBase) typ() typeKind { return e.Ty }

// intLit is an integer literal.
type intLit struct {
	exprBase
	Value int64
}

// floatLit is a float literal.
type floatLit struct {
	exprBase
	Value float64
}

// boolLit is true/false.
type boolLit struct {
	exprBase
	Value bool
}

// ident is a variable reference.
type ident struct {
	exprBase
	Name string
	// Resolved by the checker:
	Global bool
	Slot   int32
}

// indexExpr is a[i].
type indexExpr struct {
	exprBase
	Arr   expr
	Index expr
}

// callExpr is f(args...).
type callExpr struct {
	exprBase
	Name string
	Args []expr
	// FnIndex is resolved by the checker.
	FnIndex int
}

// newArrayExpr is new elem[size].
type newArrayExpr struct {
	exprBase
	ElemFloat bool
	Size      expr
}

// lenExpr is len(arr).
type lenExpr struct {
	exprBase
	Arr expr
}

// convExpr is int(x) or float(x).
type convExpr struct {
	exprBase
	ToFloat bool
	X       expr
}

// unaryExpr is -x or !x.
type unaryExpr struct {
	exprBase
	Op tokKind // tokMinus or tokNot
	X  expr
}

// binaryExpr is x op y for arithmetic, comparison, and logic operators.
type binaryExpr struct {
	exprBase
	Op   tokKind
	X, Y expr
}
