package lang

import (
	"testing"
)

// FuzzParseLower is the native-fuzzing counterpart of the quick.Check
// probes above: the Go fuzzer's coverage guidance finds parser and lowerer
// paths that random splicing misses. The whole frontend must stay
// panic-free on arbitrary input, and anything that parses and lowers must
// produce IR that passes validation.
func FuzzParseLower(f *testing.F) {
	for _, s := range parseLowerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		for _, k := range file.Kernels {
			l, err := Lower(k)
			if err != nil {
				continue
			}
			if verr := l.Validate(); verr != nil {
				t.Fatalf("kernel %q lowered to invalid IR: %v\nsource:\n%s", k.Name, verr, src)
			}
		}
	})
}

// parseLowerSeeds seeds FuzzParseLower and FuzzLexMatchesParent.
var parseLowerSeeds = []string{
	"",
	"kernel k { double a[]; for i = 0 .. 4 { a[i] = 0.0; } }",
	"kernel k lang=c nest=2 entries=3 {\n param double a;\n double x[], y[];\n int idx[];\n noalias;\n for i = 0 .. 128 {\n  if (x[i] > a) { y[i] = x[i] * 2.0; } else { y[i] = y[idx[i]]; }\n  if (y[i] == 0.0) break;\n  call f();\n }\n}",
	"kernel q lang=fortran { double a[], b[]; double s; for i = 0 .. 1024 { s = s + a[i]*b[i]; } }",
	"kernel s lang=c { double a[], b[]; noalias; for i = 1 .. 511 { b[i] = a[i-1] + a[i] + a[i+1]; } }",
	"/* comment */ kernel c { int k[]; for i = 0 .. 8 { k[i] = i; } } // trailing",
	"kernel bad { for i = 0 .. { } }",
	"kernel k { double a[]; for i = 0 .. 4 { a[i] = ",
}
