// Package jolt implements the front end for Jolt, the small Java-flavoured
// language the reproduction's benchmark programs are written in. The
// pipeline is lexer → parser → type checker → bytecode code generator;
// Compile ties the phases together and returns a verified bytecode module.
//
// Jolt has int (64-bit), float (64-bit), bool, and one-dimensional arrays
// (int[], float[]); functions with by-value parameters; global variables;
// if/while/for control flow with break/continue; short-circuit && and ||;
// explicit int()/float() conversions; new T[n], len(a), and print(e).
package jolt

import (
	"fmt"
	"unicode"
)

// Kind classifies a token.
type Kind uint8

const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT

	// Keywords.
	KwVar
	KwFunc
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwTrue
	KwFalse
	KwNew
	KwInt
	KwFloat
	KwBool
	KwLen
	KwPrint

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBrack
	RBrack
	Comma
	Semi
	Assign // =
	Plus
	Minus
	Star
	Slash
	Percent
	Lt
	Le
	Gt
	Ge
	EqEq
	NotEq
	AndAnd
	OrOr
	Not
	Amp   // &
	Pipe  // |
	Caret // ^
	Shl   // <<
	Shr   // >>
)

var kindNames = map[Kind]string{
	EOF: "end of file", IDENT: "identifier", INTLIT: "int literal", FLOATLIT: "float literal",
	KwVar: "'var'", KwFunc: "'func'", KwIf: "'if'", KwElse: "'else'", KwWhile: "'while'",
	KwFor: "'for'", KwReturn: "'return'", KwBreak: "'break'", KwContinue: "'continue'",
	KwTrue: "'true'", KwFalse: "'false'", KwNew: "'new'", KwInt: "'int'", KwFloat: "'float'",
	KwBool: "'bool'", KwLen: "'len'", KwPrint: "'print'",
	LParen: "'('", RParen: "')'", LBrace: "'{'", RBrace: "'}'", LBrack: "'['", RBrack: "']'",
	Comma: "','", Semi: "';'", Assign: "'='", Plus: "'+'", Minus: "'-'", Star: "'*'",
	Slash: "'/'", Percent: "'%'", Lt: "'<'", Le: "'<='", Gt: "'>'", Ge: "'>='",
	EqEq: "'=='", NotEq: "'!='", AndAnd: "'&&'", OrOr: "'||'", Not: "'!'",
	Amp: "'&'", Pipe: "'|'", Caret: "'^'", Shl: "'<<'", Shr: "'>>'",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

var keywords = map[string]Kind{
	"var": KwVar, "func": KwFunc, "if": KwIf, "else": KwElse, "while": KwWhile,
	"for": KwFor, "return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"true": KwTrue, "false": KwFalse, "new": KwNew, "int": KwInt, "float": KwFloat,
	"bool": KwBool, "len": KwLen, "print": KwPrint,
}

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string
	Int  int64
	Flt  float64
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT:
		return fmt.Sprintf("identifier %q", t.Text)
	case INTLIT:
		return fmt.Sprintf("int %d", t.Int)
	case FLOATLIT:
		return fmt.Sprintf("float %g", t.Flt)
	}
	return t.Kind.String()
}

// Error is a front-end diagnostic with a source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("jolt:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenizes the source. The returned slice always ends with an EOF
// token.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(src)

	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += k
	}
	emit := func(k Kind, text string, startLine, startCol int) {
		toks = append(toks, Token{Kind: k, Text: text, Line: startLine, Col: startCol})
	}

	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			startLine, startCol := line, col
			advance(2)
			closed := false
			for i+1 < n {
				if src[i] == '*' && src[i+1] == '/' {
					advance(2)
					closed = true
					break
				}
				advance(1)
			}
			if !closed {
				return nil, errf(startLine, startCol, "unterminated block comment")
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			startLine, startCol := line, col
			j := i
			for j < n && (isIdentChar(src[j])) {
				j++
			}
			word := src[i:j]
			advance(j - i)
			if kw, ok := keywords[word]; ok {
				emit(kw, word, startLine, startCol)
			} else {
				emit(IDENT, word, startLine, startCol)
			}
		case c >= '0' && c <= '9':
			startLine, startCol := line, col
			j := i
			isFloat := false
			for j < n && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			if j < n && src[j] == '.' && j+1 < n && src[j+1] >= '0' && src[j+1] <= '9' {
				isFloat = true
				j++
				for j < n && src[j] >= '0' && src[j] <= '9' {
					j++
				}
			}
			if j < n && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < n && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < n && src[k] >= '0' && src[k] <= '9' {
					isFloat = true
					j = k
					for j < n && src[j] >= '0' && src[j] <= '9' {
						j++
					}
				}
			}
			text := src[i:j]
			advance(j - i)
			tok := Token{Text: text, Line: startLine, Col: startCol}
			if isFloat {
				var f float64
				if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
					return nil, errf(startLine, startCol, "bad float literal %q", text)
				}
				tok.Kind, tok.Flt = FLOATLIT, f
			} else {
				var v int64
				if _, err := fmt.Sscanf(text, "%d", &v); err != nil {
					return nil, errf(startLine, startCol, "bad int literal %q", text)
				}
				tok.Kind, tok.Int = INTLIT, v
			}
			toks = append(toks, tok)
		default:
			startLine, startCol := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			var k Kind
			var width int
			switch two {
			case "<=":
				k, width = Le, 2
			case ">=":
				k, width = Ge, 2
			case "==":
				k, width = EqEq, 2
			case "!=":
				k, width = NotEq, 2
			case "&&":
				k, width = AndAnd, 2
			case "||":
				k, width = OrOr, 2
			case "<<":
				k, width = Shl, 2
			case ">>":
				k, width = Shr, 2
			default:
				width = 1
				switch c {
				case '(':
					k = LParen
				case ')':
					k = RParen
				case '{':
					k = LBrace
				case '}':
					k = RBrace
				case '[':
					k = LBrack
				case ']':
					k = RBrack
				case ',':
					k = Comma
				case ';':
					k = Semi
				case '=':
					k = Assign
				case '+':
					k = Plus
				case '-':
					k = Minus
				case '*':
					k = Star
				case '/':
					k = Slash
				case '%':
					k = Percent
				case '<':
					k = Lt
				case '>':
					k = Gt
				case '!':
					k = Not
				case '&':
					k = Amp
				case '|':
					k = Pipe
				case '^':
					k = Caret
				default:
					return nil, errf(line, col, "unexpected character %q", string(c))
				}
			}
			emit(k, src[i:i+width], startLine, startCol)
			advance(width)
		}
	}
	toks = append(toks, Token{Kind: EOF, Line: line, Col: col})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || (c >= '0' && c <= '9')
}
