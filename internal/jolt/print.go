package jolt

import (
	"fmt"
	"strings"
)

// Dump parses src, applies opt's loop unrolling, and renders the AST as
// an indented tree, for joltc -dump ast and front-end debugging. The tree
// is a dump, not Jolt source.
func Dump(src string, opt Options) (string, error) {
	prog, err := parse(src)
	if err != nil {
		return "", err
	}
	unroll(prog, opt.UnrollFactor)
	return printProgram(prog), nil
}

// printProgram renders a parsed program as Dump does.
func printProgram(p *program) string {
	var b strings.Builder
	pr := &printer{b: &b}
	for _, g := range p.Globals {
		pr.printf("global %s %s", g.Name, g.Type)
		if g.Init != nil {
			pr.b.WriteString(" = ")
			pr.expr(g.Init)
		}
		pr.nl()
	}
	for _, f := range p.Funcs {
		pr.printf("func %s(", f.Name)
		for i, param := range f.Params {
			if i > 0 {
				pr.b.WriteString(", ")
			}
			pr.printf("%s %s", param.Name, param.Type)
		}
		pr.printf(") %s", f.Ret)
		pr.nl()
		pr.indent++
		pr.block(f.Body)
		pr.indent--
	}
	return b.String()
}

type printer struct {
	b      *strings.Builder
	indent int
}

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(p.b, format, args...)
}

func (p *printer) nl() {
	p.b.WriteString("\n")
}

func (p *printer) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("  ", p.indent))
	p.printf(format, args...)
	p.nl()
}

func (p *printer) open(format string, args ...any) {
	p.b.WriteString(strings.Repeat("  ", p.indent))
	p.printf(format, args...)
	p.nl()
	p.indent++
}

func (p *printer) close() { p.indent-- }

func (p *printer) block(b *blockStmt) {
	for _, s := range b.Stmts {
		p.stmt(s)
	}
}

func (p *printer) stmt(s stmt) {
	switch s := s.(type) {
	case *blockStmt:
		p.open("block")
		p.block(s)
		p.close()
	case *varStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.printf("var %s %s", s.Name, s.Type)
		if s.Init != nil {
			p.b.WriteString(" = ")
			p.expr(s.Init)
		}
		p.nl()
	case *assignStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.expr(s.LHS)
		p.b.WriteString(" = ")
		p.expr(s.RHS)
		p.nl()
	case *ifStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.b.WriteString("if ")
		p.expr(s.Cond)
		p.nl()
		p.indent++
		p.block(s.Then)
		p.indent--
		if s.Else != nil {
			p.open("else")
			p.stmt(s.Else)
			p.close()
		}
	case *whileStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.b.WriteString("while ")
		p.expr(s.Cond)
		p.nl()
		p.indent++
		p.block(s.Body)
		p.indent--
	case *forStmt:
		p.open("for")
		if s.Init != nil {
			p.stmt(s.Init)
		}
		if s.Cond != nil {
			p.b.WriteString(strings.Repeat("  ", p.indent))
			p.b.WriteString("cond ")
			p.expr(s.Cond)
			p.nl()
		}
		if s.Post != nil {
			p.stmt(s.Post)
		}
		p.open("body")
		p.block(s.Body)
		p.close()
		p.close()
	case *returnStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.b.WriteString("return")
		if s.Value != nil {
			p.b.WriteString(" ")
			p.expr(s.Value)
		}
		p.nl()
	case *breakStmt:
		p.line("break")
	case *continueStmt:
		p.line("continue")
	case *printStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.b.WriteString("print ")
		p.expr(s.Value)
		p.nl()
	case *exprStmt:
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.expr(s.X)
		p.nl()
	}
}

func (p *printer) expr(e expr) {
	switch e := e.(type) {
	case *intLit:
		p.printf("%d", e.Value)
	case *floatLit:
		p.printf("%g", e.Value)
	case *boolLit:
		p.printf("%t", e.Value)
	case *ident:
		p.b.WriteString(e.Name)
	case *indexExpr:
		p.expr(e.Arr)
		p.b.WriteString("[")
		p.expr(e.Index)
		p.b.WriteString("]")
	case *callExpr:
		p.b.WriteString(e.Name)
		p.b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a)
		}
		p.b.WriteString(")")
	case *newArrayExpr:
		elem := "int"
		if e.ElemFloat {
			elem = "float"
		}
		p.printf("new %s[", elem)
		p.expr(e.Size)
		p.b.WriteString("]")
	case *lenExpr:
		p.b.WriteString("len(")
		p.expr(e.Arr)
		p.b.WriteString(")")
	case *convExpr:
		if e.ToFloat {
			p.b.WriteString("float(")
		} else {
			p.b.WriteString("int(")
		}
		p.expr(e.X)
		p.b.WriteString(")")
	case *unaryExpr:
		p.b.WriteString(opText(e.Op))
		p.b.WriteString("(")
		p.expr(e.X)
		p.b.WriteString(")")
	case *binaryExpr:
		p.b.WriteString("(")
		p.expr(e.X)
		p.printf(" %s ", opText(e.Op))
		p.expr(e.Y)
		p.b.WriteString(")")
	}
}

func opText(k tokKind) string {
	switch k {
	case tokPlus:
		return "+"
	case tokMinus:
		return "-"
	case tokStar:
		return "*"
	case tokSlash:
		return "/"
	case tokPercent:
		return "%"
	case tokLt:
		return "<"
	case tokLe:
		return "<="
	case tokGt:
		return ">"
	case tokGe:
		return ">="
	case tokEqEq:
		return "=="
	case tokNotEq:
		return "!="
	case tokAndAnd:
		return "&&"
	case tokOrOr:
		return "||"
	case tokNot:
		return "!"
	case tokAmp:
		return "&"
	case tokPipe:
		return "|"
	case tokCaret:
		return "^"
	case tokShl:
		return "<<"
	case tokShr:
		return ">>"
	}
	return k.name()
}
