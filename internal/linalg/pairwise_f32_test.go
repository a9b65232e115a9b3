package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrixF32(rng *rand.Rand, n, d int) ([]float32, [][]float64) {
	flat := make([]float32, n*d)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			v := rng.Float64()*4 - 2
			rows[i][j] = float64(float32(v))
			flat[i*d+j] = float32(v)
		}
	}
	return flat, rows
}

// The f32 pairwise kernel must agree with the float64 reference within
// float32 rounding across shapes that hit the tile edges, and a query's
// row must be the same bits alone as anywhere in a batch.
func TestPairwiseSqDistF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range []struct{ m, n, d int }{
		{1, 1, 1}, {3, 7, 5}, {8, 33, 38}, {17, 64, 13}, {2, 100, 21},
	} {
		q32, q64 := randMatrixF32(rng, shape.m, shape.d)
		t32, t64 := randMatrixF32(rng, shape.n, shape.d)
		tnorm := SqNormsF32(t32, shape.n, shape.d, nil)
		out := PairwiseSqDistF32Into(q32, shape.m, t32, shape.n, shape.d, tnorm, nil)
		if len(out) != shape.m*shape.n {
			t.Fatalf("shape %+v: got %d entries, want %d", shape, len(out), shape.m*shape.n)
		}
		for i := 0; i < shape.m; i++ {
			alone := PairwiseSqDistF32Into(q32[i*shape.d:(i+1)*shape.d], 1, t32, shape.n, shape.d, tnorm, nil)
			for j := 0; j < shape.n; j++ {
				if math.Float32bits(alone[j]) != math.Float32bits(out[i*shape.n+j]) {
					t.Errorf("shape %+v (%d,%d): %g alone, %g in the batch", shape, i, j, alone[j], out[i*shape.n+j])
				}
				want := SqDist(q64[i], t64[j])
				got := float64(out[i*shape.n+j])
				// The norms identity loses low bits relative to the direct
				// subtract-square accumulation; allow relative 1e-4.
				tol := 1e-4 * (1 + math.Abs(want))
				if math.Abs(got-want) > tol {
					t.Errorf("shape %+v (%d,%d): got %g, want %g", shape, i, j, got, want)
				}
				if got < 0 {
					t.Errorf("shape %+v (%d,%d): negative distance %g", shape, i, j, got)
				}
			}
		}
	}
}

func TestSqNormsF32(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flat, rows := randMatrixF32(rng, 9, 11)
	norms := SqNormsF32(flat, 9, 11, nil)
	for i, row := range rows {
		want := Dot(row, row)
		if math.Abs(float64(norms[i])-want) > 1e-4*(1+want) {
			t.Errorf("row %d: got %g, want %g", i, norms[i], want)
		}
	}
}

func TestDotAndMulVecF32(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a32, a64 := randMatrixF32(rng, 6, 17)
	x32, x64 := randMatrixF32(rng, 1, 17)
	out := make([]float32, 6)
	MulVecF32(a32, 6, 17, x32[:17], out)
	for r := 0; r < 6; r++ {
		want := Dot(a64[r], x64[0])
		if math.Abs(float64(out[r])-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("row %d: got %g, want %g", r, out[r], want)
		}
	}
	// Odd tail lengths exercise the 4-lane remainder loop.
	for _, n := range []int{1, 2, 3, 5, 6, 7} {
		got := float64(DotF32(a32[:n], x32[:n]))
		want := Dot(a64[0][:n], x64[0][:n])
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dot len %d: got %g, want %g", n, got, want)
		}
	}
}

// Buffer reuse must not reallocate when capacity suffices.
func TestPairwiseSqDistF32Reuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q32, _ := randMatrixF32(rng, 4, 8)
	t32, _ := randMatrixF32(rng, 10, 8)
	tnorm := SqNormsF32(t32, 10, 8, nil)
	buf := make([]float32, 64)
	out := PairwiseSqDistF32Into(q32, 4, t32, 10, 8, tnorm, buf)
	if &out[0] != &buf[0] {
		t.Error("PairwiseSqDistF32Into reallocated despite sufficient capacity")
	}
	norms := SqNormsF32(t32, 10, 8, buf)
	if &norms[0] != &buf[0] {
		t.Error("SqNormsF32 reallocated despite sufficient capacity")
	}
}
