//go:build race

package electrical

// raceEnabled reports a race-detector build, where sync.Pool discards
// a random share of Put items, so allocation counts are not pinned.
const raceEnabled = true
