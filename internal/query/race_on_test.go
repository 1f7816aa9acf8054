//go:build race

package query

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
