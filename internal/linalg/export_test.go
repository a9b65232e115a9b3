package linalg

import "testing"

// ForEachLeaf runs f on every code path, scalar and every tile width (see
// forEachLeaf), for the tests of packages built on this one, which
// linalg_test hosts.
func ForEachLeaf(t *testing.T, f func(t *testing.T)) {
	forEachLeaf(t, tileWidths, f)
}
