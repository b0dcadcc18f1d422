//go:build !race

package tracy

// raceEnabled reports a build with the race detector (see race_test.go).
const raceEnabled = false
