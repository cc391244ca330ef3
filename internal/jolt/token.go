// Package jolt implements the front end for Jolt, the small Java-flavoured
// language the reproduction's benchmark programs are written in. The
// pipeline is lexer → parser → type checker → bytecode code generator;
// Compile ties the phases together and returns a bytecode module, which
// its consumers verify.
//
// Jolt has int (64-bit), float (64-bit), bool, and one-dimensional arrays
// (int[], float[]); functions with by-value parameters; global variables;
// if/while/for control flow with break/continue; short-circuit && and ||;
// explicit int()/float() conversions; new T[n], len(a), and print(e).
package jolt

import (
	"fmt"
	"strconv"
	"unicode"
)

// tokKind classifies a token.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokIntLit
	tokFloatLit

	// Keywords.
	kwVar
	kwFunc
	kwIf
	kwElse
	kwWhile
	kwFor
	kwReturn
	kwBreak
	kwContinue
	kwTrue
	kwFalse
	kwNew
	kwInt
	kwFloat
	kwBool
	kwLen
	kwPrint

	// Punctuation and operators.
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBrack
	tokRBrack
	tokComma
	tokSemi
	tokAssign // =
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokLt
	tokLe
	tokGt
	tokGe
	tokEqEq
	tokNotEq
	tokAndAnd
	tokOrOr
	tokNot
	tokAmp   // &
	tokPipe  // |
	tokCaret // ^
	tokShl   // <<
	tokShr   // >>
)

var kindNames = map[tokKind]string{
	tokEOF: "end of file", tokIdent: "identifier", tokIntLit: "int literal", tokFloatLit: "float literal",
	kwVar: "'var'", kwFunc: "'func'", kwIf: "'if'", kwElse: "'else'", kwWhile: "'while'",
	kwFor: "'for'", kwReturn: "'return'", kwBreak: "'break'", kwContinue: "'continue'",
	kwTrue: "'true'", kwFalse: "'false'", kwNew: "'new'", kwInt: "'int'", kwFloat: "'float'",
	kwBool: "'bool'", kwLen: "'len'", kwPrint: "'print'",
	tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'", tokRBrace: "'}'", tokLBrack: "'['", tokRBrack: "']'",
	tokComma: "','", tokSemi: "';'", tokAssign: "'='", tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'",
	tokSlash: "'/'", tokPercent: "'%'", tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
	tokEqEq: "'=='", tokNotEq: "'!='", tokAndAnd: "'&&'", tokOrOr: "'||'", tokNot: "'!'",
	tokAmp: "'&'", tokPipe: "'|'", tokCaret: "'^'", tokShl: "'<<'", tokShr: "'>>'",
}

func (k tokKind) name() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

var keywords = map[string]tokKind{
	"var": kwVar, "func": kwFunc, "if": kwIf, "else": kwElse, "while": kwWhile,
	"for": kwFor, "return": kwReturn, "break": kwBreak, "continue": kwContinue,
	"true": kwTrue, "false": kwFalse, "new": kwNew, "int": kwInt, "float": kwFloat,
	"bool": kwBool, "len": kwLen, "print": kwPrint,
}

// token is one lexical token.
type token struct {
	Kind tokKind
	Text string
	Int  int64
	Flt  float64
	Line int
	Col  int
}

func (t token) describe() string {
	switch t.Kind {
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case tokIntLit:
		return fmt.Sprintf("int %d", t.Int)
	case tokFloatLit:
		return fmt.Sprintf("float %g", t.Flt)
	}
	return t.Kind.name()
}

// posError is a front-end diagnostic with a source position.
type posError struct {
	Line, Col int
	Msg       string
}

func (e *posError) Error() string {
	return fmt.Sprintf("jolt:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) error {
	return &posError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes the source. The returned slice always ends with a tokEOF
// token.
func lex(src string) ([]token, error) {
	var toks []token
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
	emit := func(k tokKind, text string, startLine, startCol int) {
		toks = append(toks, token{Kind: k, Text: text, Line: startLine, Col: startCol})
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
				emit(tokIdent, word, startLine, startCol)
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
			tok := token{Text: text, Line: startLine, Col: startCol}
			// Out-of-range literals are refused; a float too small to
			// represent reads as zero.
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, errf(startLine, startCol, "bad float literal %q", text)
				}
				tok.Kind, tok.Flt = tokFloatLit, f
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, errf(startLine, startCol, "bad int literal %q", text)
				}
				tok.Kind, tok.Int = tokIntLit, v
			}
			toks = append(toks, tok)
		default:
			startLine, startCol := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			var k tokKind
			var width int
			switch two {
			case "<=":
				k, width = tokLe, 2
			case ">=":
				k, width = tokGe, 2
			case "==":
				k, width = tokEqEq, 2
			case "!=":
				k, width = tokNotEq, 2
			case "&&":
				k, width = tokAndAnd, 2
			case "||":
				k, width = tokOrOr, 2
			case "<<":
				k, width = tokShl, 2
			case ">>":
				k, width = tokShr, 2
			default:
				width = 1
				switch c {
				case '(':
					k = tokLParen
				case ')':
					k = tokRParen
				case '{':
					k = tokLBrace
				case '}':
					k = tokRBrace
				case '[':
					k = tokLBrack
				case ']':
					k = tokRBrack
				case ',':
					k = tokComma
				case ';':
					k = tokSemi
				case '=':
					k = tokAssign
				case '+':
					k = tokPlus
				case '-':
					k = tokMinus
				case '*':
					k = tokStar
				case '/':
					k = tokSlash
				case '%':
					k = tokPercent
				case '<':
					k = tokLt
				case '>':
					k = tokGt
				case '!':
					k = tokNot
				case '&':
					k = tokAmp
				case '|':
					k = tokPipe
				case '^':
					k = tokCaret
				default:
					return nil, errf(line, col, "unexpected character %q", string(c))
				}
			}
			emit(k, src[i:i+width], startLine, startCol)
			advance(width)
		}
	}
	toks = append(toks, token{Kind: tokEOF, Line: line, Col: col})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || (c >= '0' && c <= '9')
}
