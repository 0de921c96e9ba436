//go:build race

package oracle

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
