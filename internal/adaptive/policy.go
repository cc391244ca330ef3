package adaptive

// The controller's cost/benefit promotion model, the analogue of Jikes
// RVM's controller constants: a per-tier expected speedup and a
// compilation-rate constant, both calibrated offline, with future
// execution estimated from the profile.
const (
	// speedupEstimate is the fraction of a function's cycles the
	// optimized tier is expected to save: the order of the suite-wide LS
	// improvement the harness measures.
	speedupEstimate = 0.10
	// compileCyclesPerInstr is the modelled cost of optimizing one
	// instruction, in simulated cycles.
	compileCyclesPerInstr = 20
	// futureWeight scales the "future = past" estimate of remaining
	// execution: one benchmark run stands in for a single request of a
	// long-running service, which replays its hot code many times over.
	futureWeight = 10
	// minEstCycles is a noise floor: functions whose estimated spent
	// cycles are below it are never considered.
	minEstCycles = 2000
)

// shouldPromote decides whether a function whose profile-estimated spent
// cycles are estSpent, with numInstrs instructions, is worth promoting:
// expected future cycles saved must exceed the modelled compile cost.
func shouldPromote(estSpent int64, numInstrs int) bool {
	if estSpent < minEstCycles {
		return false
	}
	benefit := float64(estSpent) * futureWeight * speedupEstimate
	return benefit > compileCycles(numInstrs)
}

// compileCycles is the modelled cost (in simulated cycles) of running
// the optimizing tier over a function of numInstrs instructions.
func compileCycles(numInstrs int) float64 {
	return compileCyclesPerInstr * float64(numInstrs)
}
