package adaptive

import (
	"time"

	"schedfilter/internal/core"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/sim"
)

// controller owns the promotion pipeline. It runs entirely on the
// simulator goroutine (onSample) and, after the run, in finish.
type controller struct {
	cfg  Config
	prog *ir.Program

	optimized []*ir.Fn  // each function's recompiled code; nil while baseline
	blockCost [][]int64 // lazily cached estimator costs of baseline blocks

	metrics Metrics
}

func newController(prog *ir.Program, cfg Config) *controller {
	return &controller{
		cfg:       cfg,
		prog:      prog,
		optimized: make([]*ir.Fn, len(prog.Fns)),
		blockCost: make([][]int64, len(prog.Fns)),
	}
}

// onSample is the simulator's sampling hook. It runs at a safe point:
// promote and recompile the baseline functions the cost/benefit policy
// picks, and hand their code back as swaps the simulator installs at
// the first safe point.
func (c *controller) onSample(s *sim.Snapshot) []sim.FnSwap {
	c.metrics.Samples++
	var swaps []sim.FnSwap
	for fi, fn := range c.prog.Fns {
		if c.optimized[fi] != nil {
			continue
		}
		if !shouldPromote(c.estSpent(fi, fn, s.ExecCounts[fi]), fn.NumInstrs()) {
			continue
		}
		c.optimized[fi] = c.promote(fn)
		swaps = append(swaps, sim.FnSwap{Fn: fi, NewFn: c.optimized[fi]})
	}
	return swaps
}

// promote recompiles one function and schedules it under the filter.
func (c *controller) promote(base *ir.Fn) *ir.Fn {
	start := time.Now()
	nf := c.recompile(base)
	stats := core.Apply(c.cfg.Model, &ir.Program{Fns: []*ir.Fn{nf}}, c.cfg.Policy, core.Pass{})
	c.metrics.CompileTime += time.Since(start)

	c.metrics.Promotions++
	c.metrics.CompileCyclesCharged += int64(compileCycles(base.NumInstrs()))
	c.metrics.BlocksConsidered += stats.Blocks
	c.metrics.BlocksScheduled += stats.Scheduled
	c.metrics.BlocksChanged += stats.Changed
	c.metrics.PromotedFns = append(c.metrics.PromotedFns, nf.Name)
	return nf
}

// estSpent estimates the simulated cycles the function has consumed:
// Σ_b execs(b) · estcost(b), the same profile-weighted estimator metric
// the paper's SIM evaluation uses. Block costs are cached — baseline
// code never changes until the function leaves the tier.
func (c *controller) estSpent(fi int, fn *ir.Fn, counts []int64) int64 {
	costs := c.blockCost[fi]
	if costs == nil {
		costs = make([]int64, len(fn.Blocks))
		for bi, b := range fn.Blocks {
			costs[bi] = int64(machine.EstimateBlockCost(c.cfg.Model, b))
		}
		c.blockCost[fi] = costs
	}
	var spent int64
	for bi, n := range counts {
		if bi < len(costs) {
			spent += n * costs[bi]
		}
	}
	return spent
}

// recompile produces the optimized tier's input code for one function:
// from bytecode through the full JIT pipeline when the module is
// available, falling back to cloning the baseline machine code. The
// fallback also guards hot-swap safety: a recompile that does not
// preserve the baseline block skeleton could not be swapped into an
// active function, so it is discarded in favour of the clone.
func (c *controller) recompile(base *ir.Fn) *ir.Fn {
	if c.cfg.Module != nil {
		nf, err := jit.CompileFn(c.cfg.Module, base.Name, c.cfg.JIT)
		if err == nil && len(nf.Blocks) == len(base.Blocks) {
			return nf
		}
	}
	return base.Clone()
}

// finish counts the recompilations the simulator installed during the
// run and installs every one it never reached a safe point for: the run
// is over, so installation is unconditionally safe.
func (c *controller) finish() {
	for fi, nf := range c.optimized {
		switch {
		case nf == nil:
		case c.prog.Fns[fi] == nf:
			c.metrics.Installed++
		default:
			c.prog.Fns[fi] = nf
			c.metrics.InstalledPost++
		}
	}
}
