package adaptive

import (
	"sync"
	"time"

	"schedfilter/internal/core"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/sim"
)

// tier is a function's position in the promotion pipeline.
type tier int8

const (
	tierBaseline  tier = iota // unscheduled code, profiled
	tierQueued                // promotion enqueued, worker pending
	tierCompiled              // recompiled, awaiting a safe point
	tierOptimized             // optimized code installed
)

// job is one promotion: recompile function fn (named name; base is the
// baseline code, which workers treat as read-only).
type job struct {
	fn   int
	name string
	base *ir.Fn
}

// compiledFn is a finished recompilation coming back from the pool.
type compiledFn struct {
	fn      int
	newFn   *ir.Fn
	stats   core.Stats
	elapsed time.Duration
}

// controller owns the promotion pipeline. All of its state is touched
// only from the simulator goroutine (onSample) and, after the run, from
// Close; workers communicate exclusively through the jobs and done
// channels.
type controller struct {
	cfg  Config
	prog *ir.Program

	tiers     []tier
	blockCost [][]int64 // lazily cached estimator costs of baseline blocks
	staged    map[int]*ir.Fn

	jobs chan job
	done chan compiledFn
	wg   sync.WaitGroup

	metrics Metrics
	closed  bool
}

func newController(prog *ir.Program, cfg Config) *controller {
	c := &controller{
		cfg:       cfg,
		prog:      prog,
		tiers:     make([]tier, len(prog.Fns)),
		blockCost: make([][]int64, len(prog.Fns)),
		staged:    map[int]*ir.Fn{},
		jobs:      make(chan job, cfg.QueueDepth),
		// Buffered past the worst case (queued + in-flight jobs) so
		// workers never block sending completions.
		done: make(chan compiledFn, cfg.QueueDepth+cfg.Workers),
	}
	for i := 0; i < cfg.Workers; i++ {
		c.wg.Add(1)
		go c.worker()
	}
	return c
}

// onSample is the simulator's sampling hook. It runs on the simulator
// goroutine at a safe point: record installation feedback, collect
// finished recompilations, decide new promotions, and hand back swaps.
func (c *controller) onSample(s *sim.Snapshot) []sim.FnSwap {
	c.metrics.Samples++
	for _, fi := range s.Installed {
		c.tiers[fi] = tierOptimized
		c.metrics.Installed++
		delete(c.staged, fi)
	}
	swaps := c.drain()
	c.considerPromotions(s)
	if d := len(c.jobs); d > c.metrics.MaxQueueDepth {
		c.metrics.MaxQueueDepth = d
	}
	return swaps
}

// drain collects finished recompilations without blocking and stages
// them for installation at the executor's safe points.
func (c *controller) drain() []sim.FnSwap {
	var swaps []sim.FnSwap
	for {
		select {
		case cf := <-c.done:
			c.record(cf)
			c.staged[cf.fn] = cf.newFn
			swaps = append(swaps, sim.FnSwap{Fn: cf.fn, NewFn: cf.newFn})
		default:
			return swaps
		}
	}
}

func (c *controller) record(cf compiledFn) {
	c.tiers[cf.fn] = tierCompiled
	c.metrics.Recompiled++
	c.metrics.BlocksConsidered += cf.stats.Blocks
	c.metrics.BlocksScheduled += cf.stats.Scheduled
	c.metrics.BlocksChanged += cf.stats.Changed
	c.metrics.CompileTime += cf.elapsed
	c.metrics.PromotedFns = append(c.metrics.PromotedFns, cf.newFn.Name)
}

// considerPromotions applies the cost/benefit policy to every function
// still in the baseline tier and enqueues the winners. A full queue
// defers the promotion — the function stays baseline and is reconsidered
// at the next sample.
func (c *controller) considerPromotions(s *sim.Snapshot) {
	for fi, fn := range c.prog.Fns {
		if c.tiers[fi] != tierBaseline {
			continue
		}
		spent := c.estSpent(fi, fn, s.ExecCounts[fi])
		if !c.cfg.Promotion.ShouldPromote(spent, fn.NumInstrs()) {
			continue
		}
		select {
		case c.jobs <- job{fn: fi, name: fn.Name, base: fn}:
			c.tiers[fi] = tierQueued
			c.metrics.Promotions++
			c.metrics.CompileCyclesCharged += int64(c.cfg.Promotion.CompileCycles(fn.NumInstrs()))
		default:
			c.metrics.QueueFull++
		}
	}
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

// worker is one background compilation thread: recompile, schedule under
// the filter, report back.
func (c *controller) worker() {
	defer c.wg.Done()
	for jb := range c.jobs {
		start := time.Now()
		nf := c.recompile(jb)
		stats := core.Apply(c.cfg.Model, &ir.Program{Fns: []*ir.Fn{nf}}, c.cfg.Policy, core.Pass{})
		c.done <- compiledFn{fn: jb.fn, newFn: nf, stats: stats, elapsed: time.Since(start)}
	}
}

// recompile produces the optimized tier's input code for one function:
// from bytecode through the full JIT pipeline when the module is
// available, falling back to cloning the baseline machine code. The
// fallback also guards hot-swap safety: a recompile that does not
// preserve the baseline block skeleton could not be swapped into an
// active function, so it is discarded in favour of the clone.
func (c *controller) recompile(jb job) *ir.Fn {
	if c.cfg.Module != nil {
		nf, err := jit.CompileFn(c.cfg.Module, jb.name, c.cfg.JIT)
		if err == nil && len(nf.Blocks) == len(jb.base.Blocks) {
			return nf
		}
	}
	return jb.base.Clone()
}

// Close shuts the pool down gracefully: stop accepting promotions, let
// in-flight jobs finish, and install every recompilation that missed its
// safe point — the run is over, so installation is unconditionally safe.
// It is idempotent.
func (c *controller) Close() {
	if c.closed {
		return
	}
	c.closed = true
	close(c.jobs)
	go func() {
		c.wg.Wait()
		close(c.done)
	}()
	for cf := range c.done {
		c.record(cf)
		c.staged[cf.fn] = cf.newFn
	}
	for fi, nf := range c.staged {
		c.prog.Fns[fi] = nf
		c.tiers[fi] = tierOptimized
		c.metrics.InstalledPost++
	}
	c.staged = map[int]*ir.Fn{}
}
