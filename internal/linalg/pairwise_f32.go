package linalg

// Float32 batch kernels for compiled serve-time inference. Single queries
// run the trained classifier in float64; these kernels serve the batched
// distance path, where halving the memory traffic of the exemplar table is
// the win and the rounding divergence is versioned into the compiled
// fingerprint.

// SqNormsF32 fills out[i] with the squared Euclidean norm of row i of the
// n×d row-major matrix t and returns it (out is grown when too small).
// Compiled predictors precompute these once per table so every batched
// query costs one dot product per row instead of a full distance loop.
func SqNormsF32(t []float32, n, d int, out []float32) []float32 {
	if cap(out) < n {
		out = make([]float32, n)
	} else {
		out = out[:n]
	}
	for i := 0; i < n; i++ {
		row := t[i*d : (i+1)*d]
		var s float32
		for _, v := range row {
			s += v * v
		}
		out[i] = s
	}
	return out
}

// PairwiseSqDistF32Into fills out with the m×n matrix of squared distances
// between the m query rows q (m×d, row-major) and the n table rows t (n×d),
// using the norms identity ‖q−t‖² = ‖q‖² − 2·q·t + ‖t‖² with the table
// norms precomputed by SqNormsF32. Rounding can drive an entry slightly
// negative; entries are clamped at zero so downstream radius comparisons
// never see a negative distance. out is grown when too small and returned.
//
// Queries are processed four at a time: each table row is loaded once and
// multiplied into four independent accumulator chains (the dot4 kernel),
// which keeps the FPU pipelined instead of latency-bound on one running
// sum and quarters the per-row loop overhead.
func PairwiseSqDistF32Into(q []float32, m int, t []float32, n, d int, tnorm, out []float32) []float32 {
	if cap(out) < m*n {
		out = make([]float32, m*n)
	} else {
		out = out[:m*n]
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		q0 := q[i*d : (i+1)*d]
		q1 := q[(i+1)*d : (i+2)*d]
		q2 := q[(i+2)*d : (i+3)*d]
		q3 := q[(i+3)*d : (i+4)*d]
		n0 := sqNormF32(q0)
		n1 := sqNormF32(q1)
		n2 := sqNormF32(q2)
		n3 := sqNormF32(q3)
		o0 := out[i*n : (i+1)*n]
		o1 := out[(i+1)*n : (i+2)*n]
		o2 := out[(i+2)*n : (i+3)*n]
		o3 := out[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			row := t[j*d : (j+1)*d]
			var s0, s1, s2, s3 float32
			for k, v := range row {
				s0 += q0[k] * v
				s1 += q1[k] * v
				s2 += q2[k] * v
				s3 += q3[k] * v
			}
			tn := tnorm[j]
			o0[j] = clampNonNeg(n0 - 2*s0 + tn)
			o1[j] = clampNonNeg(n1 - 2*s1 + tn)
			o2[j] = clampNonNeg(n2 - 2*s2 + tn)
			o3[j] = clampNonNeg(n3 - 2*s3 + tn)
		}
	}
	for ; i < m; i++ {
		qi := q[i*d : (i+1)*d]
		qn := sqNormF32(qi)
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			// dotSeqF32 matches the dot4 kernel's per-query accumulation
			// order, so a query's distances do not depend on its position
			// within the batch.
			orow[j] = clampNonNeg(qn - 2*dotSeqF32(qi, t[j*d:(j+1)*d]) + tnorm[j])
		}
	}
	return out
}

// dotSeqF32 is the sequential-order inner product the pairwise kernels
// accumulate in.
func dotSeqF32(a, b []float32) float32 {
	b = b[:len(a)]
	var s float32
	for k, v := range a {
		s += v * b[k]
	}
	return s
}

func sqNormF32(v []float32) float32 {
	var s float32
	for _, x := range v {
		s += x * x
	}
	return s
}

func clampNonNeg(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}

// DotF32 returns the inner product of two equal-length float32 vectors,
// accumulated across four independent lanes so the multiplies pipeline.
func DotF32(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + s2) + s3
}

// MulVecF32 computes the matrix-vector product out[r] = Σ_c a[r·cols+c]·x[c]
// for the rows×cols row-major matrix a. out must have rows capacity.
func MulVecF32(a []float32, rows, cols int, x, out []float32) {
	for r := 0; r < rows; r++ {
		out[r] = DotF32(a[r*cols:(r+1)*cols], x)
	}
}
