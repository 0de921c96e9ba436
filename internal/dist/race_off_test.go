//go:build !race

package dist

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
