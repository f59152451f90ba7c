//go:build !race

package electrical

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
