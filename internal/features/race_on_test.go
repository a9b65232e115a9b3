//go:build race

package features

// raceEnabled reports a race-detector build: sync.Pool then drops a random
// share of the objects put back, so allocation counts are not pinned.
const raceEnabled = true
