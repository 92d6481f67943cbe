//go:build !race

package harness

// raceEnabled reports that the race detector is on: timings are then
// the instrumentation's, not the store's.
const raceEnabled = false
