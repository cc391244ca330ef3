package sim

// RunState is Run, also returning a timed run's issue state.
var RunState = run
