package lang

import (
	"encoding/binary"
	"strings"
	"sync"
	"unicode"
)

// Lexer turns LoopLang source text into tokens. It supports //-style line
// comments and /* */ block comments.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.here()
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *Lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if k, ok := keywords[strings.ToLower(text)]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	case unicode.IsDigit(rune(c)):
		start := lx.pos
		for lx.pos < len(lx.src) && (unicode.IsDigit(rune(lx.peek())) || lx.peek() == '.') {
			// ".." terminates a number: it is the range operator.
			if lx.peek() == '.' && lx.peek2() == '.' {
				break
			}
			lx.advance()
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: pos}, nil
	}
	lx.advance()
	switch c {
	case '.':
		if lx.peek() == '.' {
			lx.advance()
			return Token{Kind: TokDotDot, Text: "..", Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected character %q", string(c))
	case '=':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: TokEq, Text: "==", Pos: pos}, nil
		}
		return Token{Kind: TokAssign, Text: "=", Pos: pos}, nil
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: TokNeq, Text: "!=", Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected character %q", string(c))
	case '<':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: TokLe, Text: "<=", Pos: pos}, nil
		}
		return Token{Kind: TokLt, Text: "<", Pos: pos}, nil
	case '>':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: TokGe, Text: ">=", Pos: pos}, nil
		}
		return Token{Kind: TokGt, Text: ">", Pos: pos}, nil
	}
	if k := punct[c]; k != TokEOF {
		return Token{Kind: k, Text: lx.src[lx.pos-1 : lx.pos], Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// punct maps each one-byte punctuation character to its kind; every other
// byte maps to TokEOF. A table lookup and a substring of the source keep
// the lexer's commonest tokens off the allocator.
var punct = [256]Kind{
	'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
	'[': TokLBracket, ']': TokRBracket, ';': TokSemi, ',': TokComma,
	'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash,
}

// Tokenize lexes the whole input, returning all tokens up to and including
// the EOF token.
func Tokenize(src string) ([]Token, error) {
	toks, err := NewLexer(src).appendAll(nil)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// appendAll lexes the rest of the input onto toks. On an error it returns
// toks as far as it got, with the error.
func (lx *Lexer) appendAll(toks []Token) ([]Token, error) {
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// Tokens is one lexed source, every token through EOF, in a pooled buffer.
// A caller can key the source by its tokens (AppendKey) and then parse
// them (Kernel) without lexing again. Release returns the buffer;
// no AST node holds a Token (nodes keep Text substrings of the source and
// Pos values), so what the parse returned stays valid after it.
type Tokens struct {
	toks []Token
}

var tokPool = sync.Pool{New: func() any { return new(Tokens) }}

// Lex lexes src into a pooled token buffer.
func Lex(src string) (*Tokens, error) {
	t := tokPool.Get().(*Tokens)
	toks, err := NewLexer(src).appendAll(t.toks[:0])
	t.toks = toks
	if err != nil {
		t.Release()
		return nil, err
	}
	return t, nil
}

// Release clears the buffer, so that it pins no source, and returns it to
// the pool. t must not be used afterwards.
func (t *Tokens) Release() {
	clear(t.toks)
	t.toks = t.toks[:0]
	tokPool.Put(t)
}

// AppendKey appends the token stream to b: each token's kind and its
// length-prefixed text, without positions. Two sources append the same
// bytes exactly when they lex to the same tokens, and then they parse to
// the same AST and lower to the same IR: whitespace and comments move
// only positions, and positions reach only error texts.
func (t *Tokens) AppendKey(b []byte) []byte {
	for _, tk := range t.toks {
		b = binary.AppendUvarint(b, uint64(tk.Kind))
		b = binary.AppendUvarint(b, uint64(len(tk.Text)))
		b = append(b, tk.Text...)
	}
	return b
}
