package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"schedfilter/internal/jit"
	"schedfilter/internal/sched"
	"schedfilter/internal/workloads"
)

// The pipeline experiment captures what this PR's two optimizations buy:
// the parallel experiment engine (wall-clock time of the main table sweep,
// serial vs fanned across a worker pool) and the allocation-lean scheduler
// fast path (heap allocations per scheduled block, pooled-scratch path vs
// the fresh-allocation reference path). The result is written as
// BENCH_pipeline.json through the shared artifact path so the numbers can
// be tracked across PRs and regenerated on CI hardware.

// PipelineResult is the BENCH_pipeline.json artifact.
type PipelineResult struct {
	// Jobs is the worker count of the parallel run; CPUs is
	// runtime.NumCPU() on the measuring host — on a single-CPU host the
	// speedup is necessarily ~1x regardless of Jobs (see docs/perf.md).
	Jobs int `json:"jobs"`
	CPUs int `json:"cpus"`

	// SerialNs and ParallelNs time the same sweep (Table 3 + Table 4 +
	// Table 6 on a fresh runner each: data collection, labelling, filter
	// induction, evaluation) at Jobs=1 and Jobs=jobs.
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`

	// Blocks is the scheduled-block population of the allocation probe;
	// AllocsPerBlockBefore/After are heap allocations per block on the
	// fresh-allocation reference path vs the pooled steady-state path.
	Blocks               int     `json:"blocks"`
	AllocsPerBlockBefore float64 `json:"allocs_per_block_before"`
	AllocsPerBlockAfter  float64 `json:"allocs_per_block_after"`
	AllocReduction       float64 `json:"alloc_reduction"`
}

// RunPipeline measures both halves of the perf work and returns the
// artifact. jobs <= 0 selects runtime.GOMAXPROCS(0).
func RunPipeline(cfg Config, jobs int) (*PipelineResult, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	res := &PipelineResult{Jobs: jobs, CPUs: runtime.NumCPU()}

	serial, err := timeSweep(cfg, 1)
	if err != nil {
		return nil, err
	}
	parallel, err := timeSweep(cfg, jobs)
	if err != nil {
		return nil, err
	}
	res.SerialNs = int64(serial)
	res.ParallelNs = int64(parallel)
	if parallel > 0 {
		res.Speedup = float64(serial) / float64(parallel)
	}

	if err := measureAllocs(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// timeSweep runs the main evaluation sweep — the three leave-one-out
// tables over the full threshold grid — on a fresh runner with the given
// worker count, so every run pays the whole pipeline (collection,
// labelling, induction, evaluation) with cold caches.
func timeSweep(cfg Config, jobs int) (time.Duration, error) {
	cfg.Jobs = jobs
	r := NewRunner(cfg)
	start := time.Now()
	if _, err := r.Table3(); err != nil {
		return 0, err
	}
	if _, err := r.Table4(); err != nil {
		return 0, err
	}
	if _, err := r.Table6(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// measureAllocs compiles one real workload and schedules every block
// repeatedly on both scheduler paths, counting heap allocations per block
// via runtime.MemStats deltas.
func measureAllocs(cfg Config, res *PipelineResult) error {
	w := workloads.ByName("scimark")
	mod, err := w.CompileWithOptions(cfg.CompileOpts.Frontend)
	if err != nil {
		return err
	}
	prog, err := jit.Compile(mod, cfg.CompileOpts.JIT)
	if err != nil {
		return err
	}
	m := cfg.Model
	blocks := 0
	for _, fn := range prog.Fns {
		blocks += len(fn.Blocks)
	}
	res.Blocks = blocks

	const reps = 20
	s := sched.NewScratch()
	pooled := func() {
		for _, fn := range prog.Fns {
			for _, b := range fn.Blocks {
				sched.ScheduleInstrsScratch(m, b.Instrs, s)
			}
		}
	}
	unpooled := func() {
		for _, fn := range prog.Fns {
			for _, b := range fn.Blocks {
				sched.ScheduleInstrsScratch(m, b.Instrs, sched.NewScratch())
			}
		}
	}
	pooled() // warm the scratch to steady state
	res.AllocsPerBlockAfter = allocsPerRun(reps, pooled) / float64(blocks)
	res.AllocsPerBlockBefore = allocsPerRun(reps, unpooled) / float64(blocks)
	if res.AllocsPerBlockAfter > 0 {
		res.AllocReduction = res.AllocsPerBlockBefore / res.AllocsPerBlockAfter
	}
	return nil
}

// allocsPerRun counts the average heap allocations of one run() call,
// measured on a quiesced heap from a single goroutine (the experiment
// engine is idle here, so Mallocs deltas are attributable to run).
func allocsPerRun(reps int, run func()) float64 {
	run() // warm-up, outside the measurement
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// Render formats the artifact for the terminal.
func (p *PipelineResult) Render() string {
	var b strings.Builder
	header(&b, "Pipeline: parallel experiment engine + allocation-lean scheduler")
	fmt.Fprintf(&b, "Sweep (tables 3+4+6, cold caches): serial %v, parallel %v at -j %d  →  %.2fx\n",
		time.Duration(p.SerialNs).Round(time.Millisecond),
		time.Duration(p.ParallelNs).Round(time.Millisecond),
		p.Jobs, p.Speedup)
	if p.CPUs == 1 {
		b.WriteString("(host has 1 CPU; parallel speedup needs more cores — see docs/perf.md)\n")
	}
	fmt.Fprintf(&b, "Scheduler allocations over %d blocks: %.2f/block before, %.2f/block after  →  %.0fx fewer\n",
		p.Blocks, p.AllocsPerBlockBefore, p.AllocsPerBlockAfter, p.AllocReduction)
	return b.String()
}

// WriteJSON writes the artifact (the BENCH_pipeline.json file tracked
// across PRs) through the shared artifact path.
func (p *PipelineResult) WriteJSON(path string) error { return WriteJSON(path, p) }
