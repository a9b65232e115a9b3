package nn

import "metaopt/internal/ml/compiled"

var _ compiled.Compiler = (*Classifier)(nil)

// Compile lowers the database into a flat exemplar-table program: the
// normalized rows pack into one contiguous float32 slab with precomputed
// squared norms, so a serve-time batch streams the table instead of
// chasing row slices.
func (c *Classifier) Compile() (*compiled.Program, error) {
	return compiled.NewNN(c.norm, c.rows, c.labels, c.radius, c.oneNN)
}
