// Package linalg provides the small dense linear-algebra kernel used by the
// learning algorithms in this repository (least-squares SVMs and linear
// discriminant analysis). It implements exactly what those algorithms need —
// dense matrices, Cholesky factorization, triangular solves, the diagonal of
// the inverse and a Jacobi eigensolver — with no external dependencies.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixData wraps data, rows·cols values in row-major order, as a
// matrix that shares its storage.
func NewMatrixData(rows, cols int, data []float64) *Matrix {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: %d values for a %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
