package lang_test

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"metaopt/internal/features"
	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/internal/machine"
)

// lowerKey lexes src once, keys it and lowers the same tokens, as the
// serve cache does on a miss.
func lowerKey(src string) (key []byte, l *ir.Loop, err error) {
	toks, err := lang.Lex(src)
	if err != nil {
		return nil, nil, err
	}
	defer toks.Release()
	key = toks.AppendKey(nil)
	k, err := toks.Kernel()
	if err != nil {
		return key, nil, err
	}
	l, err = lang.Lower(k)
	return key, l, err
}

// separators join re-spaced tokens. Each starts and ends with white space,
// so a comment never fuses with a neighbouring '/' or '*'.
var separators = []string{" ", "\n", "\t", "\r\n", "  \t ", " /* c */ ", " /**/\n", " // line\n", "\n// a\n\t/* b\n */ "}

// FuzzTokenKey checks the serve cache key's soundness. Any input that
// lowers, re-spaced with random white space and comments between its
// tokens, keeps its key, its IR text and its feature bits. Replacing one
// identifier or number token changes the key.
func FuzzTokenKey(f *testing.F) {
	for _, s := range lang.ParseLowerSeeds {
		f.Add(s, uint64(1), uint16(0))
	}
	held, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.02})
	if err != nil {
		f.Fatal(err)
	}
	for i, b := range held.Benchmarks {
		if i%8 == 0 {
			f.Add(b.Sources[0], uint64(i), uint16(i))
		}
	}
	m := machine.Itanium2()
	f.Fuzz(func(t *testing.T, src string, seed uint64, pick uint16) {
		key, l, err := lowerKey(src)
		if err != nil {
			return
		}
		toks, err := lang.Tokenize(src)
		if err != nil {
			t.Fatalf("Lex accepted what Tokenize refused: %v", err)
		}
		toks = toks[:len(toks)-1] // EOF
		rng := rand.New(rand.NewPCG(seed, uint64(pick)))
		var sb strings.Builder
		sb.WriteString(separators[rng.IntN(len(separators))])
		for _, tk := range toks {
			sb.WriteString(tk.Text)
			sb.WriteString(separators[rng.IntN(len(separators))])
		}
		spaced := sb.String()
		key2, l2, err := lowerKey(spaced)
		if err != nil {
			t.Fatalf("re-spaced source does not lower: %v\n%s", err, spaced)
		}
		if !bytes.Equal(key, key2) {
			t.Fatalf("re-spacing changed the key:\n%s\n%s", src, spaced)
		}
		if a, b := l.AppendText(nil), l2.AppendText(nil); !bytes.Equal(a, b) {
			t.Fatalf("equal keys, different IR:\n%s\n%s", a, b)
		}
		v, v2 := features.Extract(l, m), features.Extract(l2, m)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(v2[i]) {
				t.Fatalf("equal keys, %s differs: %v vs %v", features.Names[i], v[i], v2[i])
			}
		}

		var edits []int
		for i, tk := range toks {
			if tk.Kind == lang.TokIdent || tk.Kind == lang.TokNumber {
				edits = append(edits, i)
			}
		}
		if len(edits) == 0 {
			return
		}
		e := edits[int(pick)%len(edits)]
		suffix := "q" // no keyword ends in q
		if toks[e].Kind == lang.TokNumber {
			suffix = "1"
		}
		sb.Reset()
		for i, tk := range toks {
			sb.WriteString(tk.Text)
			if i == e {
				sb.WriteString(suffix)
			}
			sb.WriteByte(' ')
		}
		edited := sb.String()
		key3, _, err := lowerKey(edited)
		if err != nil {
			return
		}
		if bytes.Equal(key, key3) {
			t.Fatalf("editing token %q kept the key:\n%s\n%s", toks[e].Text, src, edited)
		}
	})
}
