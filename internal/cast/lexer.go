package cast

import (
	"fmt"
	"strings"
)

// LexError describes a lexical error at a source position.
type LexError struct {
	Pos  int
	Line int
	Col  int
	Msg  string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("%d:%d: lex error: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes C source text. Preprocessor directives are skipped
// line-wise (seeds are expected to be preprocessed or directive-free);
// comments are skipped.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Reset rewinds the lexer onto new source text, equivalent to (but
// cheaper than) allocating a fresh lexer — the compile hot loop lexes
// one mutant per iteration and reuses a single Lexer per stream.
func (lx *Lexer) Reset(src string) {
	lx.src, lx.off, lx.line, lx.col = src, 0, 1, 1
}

// Lex tokenizes the whole input, returning the token stream terminated by
// a TokEOF token.
func Lex(src string) ([]Token, error) { return lexInto(src, nil) }

// lexInto lexes src appending into buf (reusing its capacity).
func lexInto(src string, buf []Token) ([]Token, error) {
	lx := NewLexer(src)
	for {
		t, err := lx.Next()
		if err != nil {
			return buf, err
		}
		buf = append(buf, t)
		if t.Kind == TokEOF {
			return buf, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) errorf(format string, args ...any) error {
	return &LexError{Pos: lx.off, Line: lx.line, Col: lx.col,
		Msg: fmt.Sprintf(format, args...)}
}

// skipTrivia consumes whitespace, comments and preprocessor lines.
func (lx *Lexer) skipTrivia() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errorf("unterminated block comment")
			}
		case c == '#' && lx.atLineStart():
			// Skip the directive, honoring backslash continuations.
			for lx.off < len(lx.src) {
				if lx.peek() == '\\' && lx.peekAt(1) == '\n' {
					lx.advance()
					lx.advance()
					continue
				}
				if lx.peek() == '\n' {
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *Lexer) atLineStart() bool {
	for i := lx.off - 1; i >= 0; i-- {
		switch lx.src[i] {
		case '\n':
			return true
		case ' ', '\t':
			continue
		default:
			return false
		}
	}
	return true
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipTrivia(); err != nil {
		return Token{}, err
	}
	start, line, col := lx.off, lx.line, lx.col
	mk := func(k TokenKind) Token {
		return Token{Kind: k, Text: lx.src[start:lx.off], Pos: start,
			End: lx.off, Line: line, Col: col}
	}
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start, End: start, Line: line, Col: col}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		t := mk(TokIdent)
		if IsKeyword(t.Text) {
			t.Kind = TokKeyword
		}
		return t, nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(mk)
	case c == '\'':
		return lx.lexCharLit(mk)
	case c == '"':
		return lx.lexStringLit(mk)
	}
	return lx.lexPunct(mk)
}

func (lx *Lexer) lexNumber(mk func(TokenKind) Token) (Token, error) {
	isFloat := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' || lx.peek() == 'p' || lx.peek() == 'P' {
			// Hex float.
			isFloat = true
			for lx.off < len(lx.src) &&
				(isHexDigit(lx.peek()) || lx.peek() == '.' || lx.peek() == 'p' ||
					lx.peek() == 'P' || lx.peek() == '+' || lx.peek() == '-') {
				lx.advance()
			}
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			next := lx.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(lx.peekAt(2))) {
				isFloat = true
				lx.advance()
				if lx.peek() == '+' || lx.peek() == '-' {
					lx.advance()
				}
				for lx.off < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			}
		}
	}
	// Suffixes (u, l, f combinations).
	for lx.off < len(lx.src) && strings.ContainsRune("uUlLfF", rune(lx.peek())) {
		if lx.peek() == 'f' || lx.peek() == 'F' {
			isFloat = true
		}
		lx.advance()
	}
	if isFloat {
		return mk(TokFloatLit), nil
	}
	return mk(TokIntLit), nil
}

func (lx *Lexer) lexCharLit(mk func(TokenKind) Token) (Token, error) {
	lx.advance() // opening quote
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == '\\' {
			lx.advance()
			if lx.off < len(lx.src) {
				lx.advance()
			}
			continue
		}
		if c == '\'' {
			lx.advance()
			return mk(TokCharLit), nil
		}
		if c == '\n' {
			break
		}
		lx.advance()
	}
	return Token{}, lx.errorf("unterminated character literal")
}

func (lx *Lexer) lexStringLit(mk func(TokenKind) Token) (Token, error) {
	lx.advance() // opening quote
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == '\\' {
			lx.advance()
			if lx.off < len(lx.src) {
				lx.advance()
			}
			continue
		}
		if c == '"' {
			lx.advance()
			return mk(TokStringLit), nil
		}
		if c == '\n' {
			break
		}
		lx.advance()
	}
	return Token{}, lx.errorf("unterminated string literal")
}

// punct3, punct2, punct1 map spellings to kinds, longest match first.
var punct3 = map[string]TokenKind{"<<=": TokShlEq, ">>=": TokShrEq, "...": TokEllipsis}

var punct2 = map[string]TokenKind{
	"->": TokArrow, "++": TokPlusPlus, "--": TokMinusMinus,
	"<<": TokShl, ">>": TokShr, "<=": TokLessEq, ">=": TokGreaterEq,
	"==": TokEqEq, "!=": TokNotEq, "&&": TokAmpAmp, "||": TokPipePipe,
	"+=": TokPlusEq, "-=": TokMinusEq, "*=": TokStarEq, "/=": TokSlashEq,
	"%=": TokPercentEq, "&=": TokAmpEq, "|=": TokPipeEq, "^=": TokCaretEq,
}

var punct1 = map[byte]TokenKind{
	'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
	'[': TokLBracket, ']': TokRBracket, ';': TokSemi, ',': TokComma,
	':': TokColon, '?': TokQuestion, '+': TokPlus, '-': TokMinus,
	'*': TokStar, '/': TokSlash, '%': TokPercent, '&': TokAmp,
	'|': TokPipe, '^': TokCaret, '~': TokTilde, '!': TokBang,
	'<': TokLess, '>': TokGreater, '=': TokAssign, '.': TokDot,
}

func (lx *Lexer) lexPunct(mk func(TokenKind) Token) (Token, error) {
	if lx.off+3 <= len(lx.src) {
		if k, ok := punct3[lx.src[lx.off:lx.off+3]]; ok {
			lx.advance()
			lx.advance()
			lx.advance()
			return mk(k), nil
		}
	}
	if lx.off+2 <= len(lx.src) {
		if k, ok := punct2[lx.src[lx.off:lx.off+2]]; ok {
			lx.advance()
			lx.advance()
			return mk(k), nil
		}
	}
	if k, ok := punct1[lx.peek()]; ok {
		lx.advance()
		return mk(k), nil
	}
	c := lx.peek()
	lx.advance()
	return Token{}, lx.errorf("unexpected character %q", string(rune(c)))
}
