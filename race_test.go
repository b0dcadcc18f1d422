//go:build race

package tracy

// raceEnabled reports a build with the race detector, which slows the
// atomics and clock reads of an instrumented compare far more than the
// plain one: wall-clock overhead reports are taken without it.
const raceEnabled = true
