package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"metaopt/internal/ir"
	"metaopt/internal/loopgen"
	"metaopt/internal/transform"
)

// refLoopString, refOpString and refMemString are the fmt-based printers
// the strconv appends replaced; the serve cache keys on these bytes.
func refLoopString(l *ir.Loop) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %s (%s, nest %d, trip %d", l.Name, l.Lang, l.NestLevel, l.TripCount)
	if l.EarlyExit {
		sb.WriteString(", early-exit")
	}
	if l.NoAlias {
		sb.WriteString(", noalias")
	}
	sb.WriteString(") {\n")
	for _, p := range l.Params {
		fmt.Fprintf(&sb, "  v%d = %s %s\n", p.ID, p.Code, p.Name)
	}
	for _, op := range l.Body {
		fmt.Fprintf(&sb, "  %s\n", refOpString(op))
	}
	sb.WriteString("}\n")
	return sb.String()
}

func refOpString(o *ir.Op) string {
	var sb strings.Builder
	if o.Code.HasResult() {
		fmt.Fprintf(&sb, "v%d = ", o.ID)
	}
	sb.WriteString(o.Code.String())
	if o.Mem != nil {
		sb.WriteByte(' ')
		sb.WriteString(refMemString(o.Mem))
	}
	for _, a := range o.Args {
		fmt.Fprintf(&sb, " v%d", a.Op.ID)
		if a.Dist > 0 {
			fmt.Fprintf(&sb, "@%d", a.Dist)
		}
	}
	if o.Predicated {
		fmt.Fprintf(&sb, " (p%d)", o.PredID)
	}
	return sb.String()
}

func refMemString(m *ir.MemRef) string {
	var sb strings.Builder
	sb.WriteString(m.Array)
	sb.WriteByte('[')
	if m.Indirect {
		sb.WriteString("ind:")
	}
	switch m.Stride {
	case 0:
	case 1:
		sb.WriteString("i")
	default:
		fmt.Fprintf(&sb, "%di", m.Stride)
	}
	if m.Offset != 0 || m.Stride == 0 {
		if m.Offset >= 0 && m.Stride != 0 {
			sb.WriteByte('+')
		}
		fmt.Fprintf(&sb, "%d", m.Offset)
	}
	sb.WriteByte(']')
	return sb.String()
}

// TestAppendTextMatchesFmt checks Loop.String, AppendText, Op.String and
// MemRef.String against the fmt printers over corpus loops, rolled and
// unrolled by 1–8 after cleanups: coalesced spans, negative offsets,
// carried distances, predicates and strided and indirect references.
func TestAppendTextMatchesFmt(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var loops, spans, negOff, carried, preds int
	check := func(l *ir.Loop) {
		loops++
		want := refLoopString(l)
		if got := l.String(); got != want {
			t.Fatalf("%s: String differs from fmt:\n%s\nwant:\n%s", l.Name, got, want)
		}
		prefix := []byte("key\x00")
		if got := l.AppendText(prefix); string(got) != "key\x00"+want {
			t.Fatalf("%s: AppendText does not extend its argument with String", l.Name)
		}
		for _, op := range l.Body {
			if got := op.String(); got != refOpString(op) {
				t.Fatalf("%s: op %q, fmt %q", l.Name, got, refOpString(op))
			}
			if op.Mem != nil {
				if got := op.Mem.String(); got != refMemString(op.Mem) {
					t.Fatalf("%s: ref %q, fmt %q", l.Name, got, refMemString(op.Mem))
				}
				if op.Mem.Span > 1 {
					spans++
				}
				if op.Mem.Offset < 0 {
					negOff++
				}
			}
			for _, a := range op.Args {
				if a.Dist > 0 {
					carried++
				}
			}
			if op.Predicated {
				preds++
			}
		}
	}
	for _, b := range c.Benchmarks {
		for _, l := range b.Loops {
			check(l)
			for u := 1; u <= transform.MaxFactor; u++ {
				ul, _, err := transform.Unroll(l, u)
				if err != nil {
					t.Fatal(err)
				}
				check(ul)
			}
		}
	}
	if spans == 0 || negOff == 0 || carried == 0 || preds == 0 {
		t.Errorf("coverage: %d spans, %d negative offsets, %d carried args, %d predicated ops; want all > 0",
			spans, negOff, carried, preds)
	}
	t.Logf("%d loops: %d coalesced spans, %d negative offsets, %d carried args, %d predicated ops",
		loops, spans, negOff, carried, preds)
}

// TestAppendTextZeroAllocs pins a warmed AppendText at zero heap
// allocations: the serve cache key renders every source request's loop.
func TestAppendTextZeroAllocs(t *testing.T) {
	c, err := loopgen.Generate(loopgen.Options{Seed: 2005, LoopsScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	l := c.Benchmarks[0].Loops[0]
	buf := l.AppendText(nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = l.AppendText(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendText allocates %v per run, want 0", allocs)
	}
}
