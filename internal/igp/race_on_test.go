//go:build race

package igp

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
