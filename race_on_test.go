//go:build race

package hoyan

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
