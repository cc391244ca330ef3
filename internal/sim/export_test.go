package sim

import (
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// RunState is Run, also returning a timed run's issue state.
func RunState(p *ir.Program, cfg Config) (*Result, *machine.IssueState, error) {
	return run(p, cfg, variant{})
}
