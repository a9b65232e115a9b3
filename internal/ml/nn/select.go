package nn

import (
	"fmt"
	"math"
	"slices"

	"metaopt/internal/ml"
	"metaopt/internal/par"
)

// selectSession scores greedy forward selection a round at a time, rows
// outer and candidates inner, and keeps no n×n matrix. Squared Euclidean
// distance is additive across features, and the per-feature normalization
// statistics do not depend on which other features are selected, so a
// worker rebuilds row i's committed distances base[j] from the committed
// columns and prices a candidate column c by adding its contribution on
// the fly: base[j] + (c[i]−c[j])².
//
// Bit-identity with the per-subset path: greedy projects subsets with the
// candidate appended last, and SqDist accumulates features left to right
// from zero. A row's committed distances start at +0 and add one committed
// feature at a time in commit order, so every distance, every neighbor
// choice and every error is what LOOCV of the projected subset gives.
//
// Most candidates are decided over a row's threshold set Sᵢ, the rows
// j ≠ i with base[j] ≤ τᵢ (see threshold). Because (c[i]−c[j])² ≥ 0 and
// rounding is monotone, every row outside Sᵢ lies at a distance above τᵢ;
// so when the vote over Sᵢ in ascending j finds its nearest row at most
// τᵢ away, no outside row can beat or tie it, and the first-index rule
// picks what the full scan picks. In radius mode τᵢ is raised to r², so
// every voter is in Sᵢ too. A row outside Sᵢ whose committed distance or
// candidate difference is NaN (a NaN or ±Inf feature) lies at a NaN
// distance, which Vote neither counts as a vote nor takes as nearest, so
// it cannot change the answer either. Only an undecided row takes the
// full scan.
type selectSession struct {
	n         int
	cols      [][]float64 // normalized feature columns of the full dataset
	finite    []bool      // finite[f]: column f holds no NaN or ±Inf
	labels    []int
	committed []int
	radius    float64
	oneNN     bool
	scratch   []*roundScratch // one per pool worker, grown on demand
}

// roundScratch is one worker's reusable buffers: O(n) floats, so a session
// holds O(n·features + workers·n) in all.
type roundScratch struct {
	base   []float64 // row i's committed distances
	near   []int     // threshold set, ascending
	nearD  []float64 // its committed distances
	hits   []int     // correct leave-one-out predictions per candidate
	sorted []valueRow
	groups []int // start of each value group in sorted, then len(sorted)
}

// valueRow is one entry of a candidate column sorted by (value, row).
type valueRow struct {
	v float64
	j int
}

// rowBlock is how many rows a pool item scores.
const rowBlock = 64

// The threshold τᵢ is the thresholdRank-th smallest of about
// thresholdSamples committed distances of row i. It sets only how many
// rows a candidate is voted over before a full scan, never the answer.
const (
	thresholdSamples = 256
	thresholdRank    = 5
)

// BeginSelect implements ml.SelectScorer.
func (t *Trainer) BeginSelect(d *ml.Dataset) (ml.SelectSession, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.Len()
	if n < 2 {
		return nil, fmt.Errorf("nn: selection needs at least 2 examples")
	}
	cols := d.Columns()
	s := &selectSession{
		n:      n,
		cols:   ml.FitNorm(cols).ApplyColumns(cols),
		labels: cols.Labels,
		radius: t.radius(),
		oneNN:  t.OneNN,
	}
	for _, col := range s.cols {
		s.finite = append(s.finite, !slices.ContainsFunc(col, func(v float64) bool {
			return math.IsNaN(v) || math.IsInf(v, 0)
		}))
	}
	return s, nil
}

// Round implements ml.SelectSession. It is one pool stage: row blocks, or
// in the first 1-NN round one item per candidate.
func (s *selectSession) Round(chosen, cands []int, scores []float64) error {
	if !slices.Equal(chosen, s.committed) {
		return fmt.Errorf("nn: selection session out of sync: chosen %v, committed %v", chosen, s.committed)
	}
	if len(scores) != len(cands) {
		return fmt.Errorf("nn: %d scores for %d candidates", len(scores), len(cands))
	}
	for _, f := range cands {
		if f < 0 || f >= len(s.cols) {
			return fmt.Errorf("nn: candidate feature %d out of range", f)
		}
	}
	if len(s.committed) == 0 && s.oneNN {
		s.grow(par.Workers(len(cands)), 0)
		return par.ForEachWorker(len(cands), func(w, c int) error {
			scores[c] = s.errorOf(s.firstRound(s.scratch[w], cands[c]))
			return nil
		})
	}
	blocks := (s.n + rowBlock - 1) / rowBlock
	workers := par.Workers(blocks)
	s.grow(workers, len(cands))
	err := par.ForEachWorker(blocks, func(w, b int) error {
		for i := b * rowBlock; i < min((b+1)*rowBlock, s.n); i++ {
			s.scoreRow(s.scratch[w], i, cands)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for c := range cands {
		hit := 0
		for _, sc := range s.scratch[:workers] {
			hit += sc.hits[c]
		}
		scores[c] = s.errorOf(hit)
	}
	return nil
}

// errorOf is 1 − accuracy, the exact expression the per-subset path
// reports (the float is not always miss/n).
func (s *selectSession) errorOf(hit int) float64 {
	return 1 - float64(hit)/float64(s.n)
}

// grow readies scratch for workers workers with zeroed hit counts for
// ncands candidates.
func (s *selectSession) grow(workers, ncands int) {
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, &roundScratch{
			base:  make([]float64, s.n),
			near:  make([]int, 0, s.n),
			nearD: make([]float64, 0, s.n),
		})
	}
	for _, sc := range s.scratch[:workers] {
		sc.hits = slices.Grow(sc.hits[:0], ncands)[:ncands]
		clear(sc.hits)
	}
}

// scoreRow adds row i's leave-one-out hits for every candidate.
func (s *selectSession) scoreRow(sc *roundScratch, i int, cands []int) {
	base := sc.base
	clear(base)
	for _, f := range s.committed {
		col := s.cols[f]
		ci := col[i]
		for j, v := range col {
			d := ci - v
			base[j] += d * d
		}
	}
	tau := threshold(base, i)
	if !s.oneNN {
		tau = max(tau, s.radius*s.radius)
	}
	near, nearD := sc.near[:0], sc.nearD[:0]
	for j, b := range base {
		if j != i && b <= tau {
			near = append(near, j)
			nearD = append(nearD, b)
		}
	}
	sc.near, sc.nearD = near, nearD
	all := len(near) == s.n-1
	labels := s.labels
	for c, f := range cands {
		col := s.cols[f]
		var v ml.Vote[float64]
		v.Reset(s.radius, s.oneNN)
		ci := col[i]
		for k, j := range near {
			dc := ci - col[j]
			v.Observe(j, labels[j], nearD[k]+dc*dc)
		}
		if !all && v.NearestDist() > tau {
			v.Reset(s.radius, s.oneNN)
			s.scan(&v, base, col, i)
		}
		if v.Decide(labels) == labels[i] {
			sc.hits[c]++
		}
	}
}

// scan feeds v every row but i at its committed distance plus the
// candidate's contribution: the full leave-one-out scan.
func (s *selectSession) scan(v *ml.Vote[float64], base, col []float64, i int) {
	ci := col[i]
	for j, b := range base {
		if j != i {
			dc := ci - col[j]
			v.Observe(j, s.labels[j], b+dc*dc)
		}
	}
}

// threshold returns row i's τᵢ: the thresholdRank-th smallest of every
// ⌈n/thresholdSamples⌉-th committed distance, skipping row i and NaNs (the
// largest of them when fewer are sampled, +Inf when none are).
func threshold(base []float64, i int) float64 {
	step := (len(base) + thresholdSamples - 1) / thresholdSamples
	var low [thresholdRank]float64 // the smallest sampled, ascending
	k := 0
	for j := 0; j < len(base); j += step {
		b := base[j]
		if j == i || math.IsNaN(b) {
			continue
		}
		if k == len(low) {
			if b >= low[k-1] {
				continue
			}
			k--
		}
		p := k
		for ; p > 0 && low[p-1] > b; p-- {
			low[p] = low[p-1]
		}
		low[p] = b
		k++
	}
	if k == 0 {
		return math.Inf(1)
	}
	return low[k-1]
}

// firstRound returns the 1-NN leave-one-out hits of candidate column f
// with nothing committed, where every distance is (c[i]−c[j])². Rows
// sorted by (value, index) form value groups, and distances grow
// monotonically outward from a row's group, so the nearest row is the
// smallest index among the groups closest in value: the row's own group
// at distance 0, then groups on each side while their distance does not
// exceed the best so far (two distinct values can still square to 0).
// A column holding a NaN or ±Inf takes the full scan.
func (s *selectSession) firstRound(sc *roundScratch, f int) int {
	col := s.cols[f]
	hit := 0
	if !s.finite[f] {
		clear(sc.base)
		for i, want := range s.labels {
			var v ml.Vote[float64]
			v.Reset(s.radius, s.oneNN)
			s.scan(&v, sc.base, col, i)
			if v.Decide(s.labels) == want {
				hit++
			}
		}
		return hit
	}
	sorted := sc.sorted[:0]
	for j, v := range col {
		sorted = append(sorted, valueRow{v, j})
	}
	slices.SortFunc(sorted, func(a, b valueRow) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return a.j - b.j
	})
	groups := sc.groups[:0]
	for p := range sorted {
		if p == 0 || sorted[p].v != sorted[p-1].v {
			groups = append(groups, p)
		}
	}
	groups = append(groups, len(sorted))
	sc.sorted, sc.groups = sorted, groups
	last := len(groups) - 1
	for g := 0; g < last; g++ {
		lo, hi := groups[g], groups[g+1]
		for _, r := range sorted[lo:hi] {
			best, bestJ := math.Inf(1), -1
			if hi-lo > 1 {
				best, bestJ = 0, sorted[lo].j
				if bestJ == r.j {
					bestJ = sorted[lo+1].j
				}
			}
			for h := g - 1; h >= 0; h-- {
				if !closer(r.v, sorted[groups[h]], &best, &bestJ) {
					break
				}
			}
			for h := g + 1; h < last; h++ {
				if !closer(r.v, sorted[groups[h]], &best, &bestJ) {
					break
				}
			}
			pred := s.labels[0] // Vote's answer when no row is nearest
			if bestJ >= 0 {
				pred = s.labels[bestJ]
			}
			if pred == s.labels[r.j] {
				hit++
			}
		}
	}
	return hit
}

// closer offers the value group led by its smallest row g to a query
// valued ci whose nearest so far is bestJ at best, with Vote's rule: a
// smaller distance wins and a tie goes to the smaller index. It reports
// false once the group is farther than best, when no group beyond it can
// be nearer.
func closer(ci float64, g valueRow, best *float64, bestJ *int) bool {
	dc := ci - g.v
	d := dc * dc
	if d > *best {
		return false
	}
	if d < *best || g.j < *bestJ {
		*best, *bestJ = d, g.j
	}
	return true
}

// Commit implements ml.SelectSession: the round winner joins the
// committed features.
func (s *selectSession) Commit(f int) error {
	if f < 0 || f >= len(s.cols) {
		return fmt.Errorf("nn: commit feature %d out of range", f)
	}
	s.committed = append(s.committed, f)
	return nil
}
