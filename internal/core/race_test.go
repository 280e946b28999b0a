//go:build race

package core

// raceEnabled reports a -race build, under which the allocation gates
// are skipped: the race runtime's instrumentation changes what escapes.
const raceEnabled = true
