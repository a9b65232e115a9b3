package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The helpers below are the tests' own dense algebra: the oracles that
// check factorizations and eigenpairs. TestMatrixMul, TestMatrixTranspose,
// TestMulVec and TestIdentityMulProperty pin them.

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// clone returns a deep copy of m.
func clone(m *Matrix) *Matrix {
	c := NewMatrix(m.Rows(), m.Cols())
	copy(c.data, m.data)
	return c
}

func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols(), m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for k := 0; k < a.Cols(); k++ {
			AXPY(a.At(i, k), b.Row(k), out.Row(i))
		}
	}
	return out
}

func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// solveInverse returns A⁻¹ from the factorization, one Solve per unit
// vector.
func solveInverse(ch *Cholesky, n int) *Matrix {
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		x := ch.Solve(e)
		e[j] = 0
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv
}

func TestMatrixBasics(t *testing.T) {
	m := fromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed: %v", m.At(0, 0))
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Errorf("Add failed: %v", m.At(0, 0))
	}
	c := clone(m)
	c.Set(0, 0, -1)
	if m.At(0, 0) != 10 {
		t.Error("clone shares storage with original")
	}
	data := []float64{1, 2, 3, 4, 5, 6}
	w := NewMatrixData(3, 2, data)
	if w.Rows() != 3 || w.Cols() != 2 || w.At(2, 1) != 6 {
		t.Fatalf("NewMatrixData: %dx%d, At(2,1) = %v", w.Rows(), w.Cols(), w.At(2, 1))
	}
	w.Set(1, 0, -3)
	if data[2] != -3 {
		t.Error("NewMatrixData copied its data instead of sharing it")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transpose(m)
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims = %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMatrixMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := mulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("mulVec = %v, want [-2 -2]", got)
	}
}

func TestIdentityMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		p := mul(a, Identity(n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(p.At(i, j), a.At(i, j), 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotNormSqDist(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 {
		t.Errorf("Dot = %v", Dot(a, a))
	}
	if Norm(a) != 5 {
		t.Errorf("Norm = %v", Norm(a))
	}
	if SqDist(a, []float64{0, 0}) != 25 {
		t.Errorf("SqDist = %v", SqDist(a, []float64{0, 0}))
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, -1}, y)
	if y[0] != 7 || y[1] != -1 {
		t.Errorf("AXPY = %v", y)
	}
}

func TestDimensionPanics(t *testing.T) {
	ch, err := NewCholesky(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Dot":           func() { Dot(make([]float64, 2), make([]float64, 3)) },
		"NewMatrixData": func() { NewMatrixData(2, 3, make([]float64, 5)) },
		"SolveLower":    func() { ch.SolveLower(make([]float64, 3)) },
		"SolveUpper":    func() { ch.SolveUpper(make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic on mismatched dimensions", name)
				}
			}()
			f()
		}()
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Error("NewCholesky accepted a non-square matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	// A known SPD matrix.
	a := fromRows([][]float64{
		{4, 2, 0.6},
		{2, 5, 1.5},
		{0.6, 1.5, 3.8},
	})
	ch, err := NewCholesky(clone(a))
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := ch.Solve(b)
	got := mulVec(a, x)
	for i := range b {
		if !almostEq(got[i], b[i], 1e-10) {
			t.Errorf("A·x[%d] = %v, want %v", i, got[i], b[i])
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := fromRows([][]float64{{0, 0}, {0, -1}})
	if _, err := NewCholesky(a); err == nil {
		t.Error("expected error for non-PD matrix")
	}
}

func TestCholeskyInverse(t *testing.T) {
	a := fromRows([][]float64{
		{6, 2, 1},
		{2, 5, 2},
		{1, 2, 4},
	})
	ch, err := NewCholesky(clone(a))
	if err != nil {
		t.Fatal(err)
	}
	inv := solveInverse(ch, 3)
	p := mul(a, inv)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(p.At(i, j), want, 1e-10) {
				t.Errorf("A·A⁻¹[%d][%d] = %v, want %v", i, j, p.At(i, j), want)
			}
		}
	}
	diag := ch.InverseDiagonal()
	for i := 0; i < 3; i++ {
		if !almostEq(diag[i], inv.At(i, i), 1e-12) {
			t.Errorf("InverseDiagonal[%d] = %v, want %v", i, diag[i], inv.At(i, i))
		}
	}
}

// Property: for random SPD matrices A = MᵀM + I, Cholesky solve inverts
// A·x, and the inverse diagonal matches explicit solves.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a := mul(transpose(m), m)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		ch, err := NewCholesky(clone(a))
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := mulVec(a, x)
		got := ch.Solve(b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				return false
			}
		}
		inv := solveInverse(ch, n)
		for i, d := range ch.InverseDiagonal() {
			if !almostEq(d, inv.At(i, i), 1e-9*(1+math.Abs(d))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEigenSymKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := fromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-9) || !almostEq(vals[1], 1, 1e-9) {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	// Check A·v = λ·v for each pair.
	for c := 0; c < 2; c++ {
		v := []float64{vecs.At(0, c), vecs.At(1, c)}
		av := mulVec(a, v)
		for i := range v {
			if !almostEq(av[i], vals[c]*v[i], 1e-9) {
				t.Errorf("A·v != λv for column %d", c)
			}
		}
	}
}

// Property: eigenvalues of random symmetric matrices satisfy A·v = λ·v and
// the eigenvector matrix is orthonormal.
func TestEigenSymProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		for c := 0; c < n; c++ {
			v := make([]float64, n)
			for r := 0; r < n; r++ {
				v[r] = vecs.At(r, c)
			}
			av := mulVec(a, v)
			for i := range v {
				if !almostEq(av[i], vals[c]*v[i], 1e-7) {
					return false
				}
			}
		}
		// Orthonormality: VᵀV = I.
		vtv := mul(transpose(vecs), vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(vtv.At(i, j), want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolvePD(t *testing.T) {
	ch, err := NewCholesky(fromRows([][]float64{{2, 0}, {0, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve([]float64{2, 8})
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Errorf("Solve = %v", x)
	}
}
