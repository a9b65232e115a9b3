package linalg

// pairTile is the blocking factor for the pairwise kernels: one tile of
// pairTile×pairTile partial sums stays resident in L1 while every feature
// column adds its contribution.
const pairTile = 32

// PairwiseSqDistColsInto fills out with the n×n matrix of squared Euclidean
// distances between the examples whose features are the given columns
// (cols[f][i] = feature f of example i), and returns it (out is grown when
// too small). It walks the upper triangle in pairTile×pairTile tiles. In a
// tile each entry starts at zero and adds (cᵢ−cⱼ)² one feature at a time in
// column order — the additions SqDist makes over the two examples' rows —
// so every entry equals SqDist of the equivalent rows bit for bit. The
// mirrored lower triangle is exact because (a−b)² and (b−a)² are the same
// float, and the diagonal is zero.
func PairwiseSqDistColsInto(cols [][]float64, n int, out []float64) []float64 {
	if cap(out) < n*n {
		out = make([]float64, n*n)
	} else {
		out = out[:n*n]
	}
	var acc [pairTile * pairTile]float64
	for ib := 0; ib < n; ib += pairTile {
		ie := min(ib+pairTile, n)
		for jb := ib; jb < n; jb += pairTile {
			je := min(jb+pairTile, n)
			w := je - jb
			tile := acc[:(ie-ib)*w]
			clear(tile)
			for _, col := range cols {
				cj := col[jb:je]
				for i := ib; i < ie; i++ {
					ci := col[i]
					row := tile[(i-ib)*w : (i-ib+1)*w]
					for j, v := range cj {
						d := ci - v
						row[j] += d * d
					}
				}
			}
			for i := ib; i < ie; i++ {
				js := jb
				if i >= js {
					out[i*n+i] = 0
					js = i + 1
				}
				row := tile[(i-ib)*w : (i-ib+1)*w]
				for j := js; j < je; j++ {
					d := row[j-jb]
					out[i*n+j] = d
					out[j*n+i] = d
				}
			}
		}
	}
	return out
}
