package lang

import (
	"strings"
	"testing"
	"unicode"
)

// refNext is the lexer's Next as it stood before punctuation moved to a
// table: a 12-entry map built for every punctuation token and one-byte
// token text from string(c). It is the reference the current lexer must
// match token for token and error for error.
func refNext(lx *Lexer) (Token, error) {
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
			if lx.peek() == '.' && lx.peek2() == '.' {
				break
			}
			lx.advance()
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: pos}, nil
	}
	lx.advance()
	single := map[byte]Kind{
		'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
		'[': TokLBracket, ']': TokRBracket, ';': TokSemi, ',': TokComma,
		'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash,
	}
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
	if k, ok := single[c]; ok {
		return Token{Kind: k, Text: string(c), Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// refTokenize is Tokenize over refNext.
func refTokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := refNext(lx)
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// lexMismatch compares Tokenize with refTokenize on src and describes the
// first difference, or returns "" when the token streams (kind, text,
// position) and the error texts agree.
func lexMismatch(src string) string {
	got, gerr := Tokenize(src)
	want, werr := refTokenize(src)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		return "error " + errText(gerr) + ", reference " + errText(werr)
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return "token counts differ"
	}
	for i := range want {
		if got[i] != want[i] {
			return "token " + got[i].Pos.String() + " " + got[i].Kind.String() + " " +
				got[i].Text + ", reference " + want[i].Kind.String() + " " + want[i].Text
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzLexMatchesParent checks the table-driven lexer against refNext on
// arbitrary input, seeded with FuzzParseLower's seeds.
func FuzzLexMatchesParent(f *testing.F) {
	for _, s := range parseLowerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := lexMismatch(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	})
}

// TestFrontendAllocs bounds the heap allocations of parsing and lowering
// daxpy: lexing builds no per-token map or text, tokens come from a pooled
// buffer and the load cache is keyed without formatting.
func TestFrontendAllocs(t *testing.T) {
	const src = `
kernel daxpy lang=c {
	param double a;
	double x[], y[];
	noalias;
	for i = 0 .. 4096 { y[i] = y[i] + a * x[i]; }
}`
	frontend := func() {
		k, err := ParseKernel(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Lower(k); err != nil {
			t.Fatal(err)
		}
	}
	frontend()
	if allocs := testing.AllocsPerRun(100, frontend); allocs > 80 {
		t.Errorf("Parse+Lower of daxpy allocates %v per run, want at most 80", allocs)
	}
}
