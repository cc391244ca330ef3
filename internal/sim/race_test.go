//go:build race

package sim_test

// raceEnabled trims the slowest matrix tests when the race detector
// multiplies the simulator's cost.
const raceEnabled = true
