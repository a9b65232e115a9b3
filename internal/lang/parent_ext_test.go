package lang_test

import (
	"testing"

	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
)

// TestLexerMatchesParent compares the lexer with refNext, the map-based
// lexer the punctuation table replaced (kinds, texts, positions and error
// texts), over the held-out corpus the serve benchmark replays, every
// input of one or two bytes, and the fuzz seeds. The two-byte inputs
// cover every byte ≥ 0x80, which the identifier classes read as Latin-1.
func TestLexerMatchesParent(t *testing.T) {
	held, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 1, Replicate: 2})
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, b := range held.Benchmarks {
		srcs = append(srcs, b.Sources...)
	}
	srcs = append(srcs, lang.ParseLowerSeeds...)
	var buf [2]byte
	for a := 0; a < 256; a++ {
		buf[0] = byte(a)
		srcs = append(srcs, string(buf[:1]))
		for b := 0; b < 256; b++ {
			buf[1] = byte(b)
			srcs = append(srcs, string(buf[:]))
		}
	}
	for _, src := range srcs {
		if d := lang.LexMismatch(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	}
	t.Logf("%d inputs match", len(srcs))
}
