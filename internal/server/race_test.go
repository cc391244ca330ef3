//go:build race

package server

// raceEnabled skips allocation counts, which the race detector inflates
// (sync.Pool drops items at random under it).
const raceEnabled = true
