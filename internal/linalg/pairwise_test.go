package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestPairwiseMatchesSqDist pins the tiled column kernel entry by entry to
// per-pair SqDist over the equivalent rows, bit for bit, on shapes that cut
// tiles.
func TestPairwiseMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 33, 70, 333} {
		for _, dim := range []int{1, 6, 11} {
			cols := make([][]float64, dim)
			for f := range cols {
				cols[f] = make([]float64, n)
				for i := range cols[f] {
					cols[f][i] = rng.Float64()
				}
			}
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = make([]float64, dim)
				for f := range cols {
					rows[i][f] = cols[f][i]
				}
			}
			stale := make([]float64, n*n)
			for i := range stale {
				stale[i] = -1
			}
			dist := PairwiseSqDistColsInto(cols, n, stale)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := math.Float64bits(SqDist(rows[i], rows[j]))
					if got := math.Float64bits(dist[i*n+j]); got != want {
						t.Fatalf("n=%d dim=%d: dist[%d][%d] = %v, SqDist = %v", n, dim, i, j, dist[i*n+j], SqDist(rows[i], rows[j]))
					}
				}
			}
		}
	}
}
