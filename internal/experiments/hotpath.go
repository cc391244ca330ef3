package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// The hot-path suite measures the per-block compile path in isolation:
// DAG construction and list scheduling on the reduced-edge pooled path
// against the retained reference builder, over every basic block the
// bundled workloads compile to, plus the singleflight dedupe layer; and
// the whole-program simulator over the same workloads, the layer behind
// the execute service and the profiling run of training. The result is
// the BENCH_hotpath.json artifact (cmd/schedexp -exp hotpath -json).
//
// The artifact splits into a deterministic section — corpus shape, edge
// counts, schedule equivalence, rounded allocation counts, and the
// constructed coalescing outcome — that is identical across runs on any
// host (`schedexp -check` compares it with the checked-in file), and a
// timing section whose numbers vary with the measuring hardware.

// HotpathConfig parameterizes the suite.
type HotpathConfig struct {
	// Workloads names the bundled benchmarks whose blocks form the
	// corpus; empty selects all.
	Workloads []string
	// Target names the machine target (registry name); empty selects the
	// default.
	Target string
}

const (
	// hotpathReps is how many times each timing pass sweeps the corpus.
	hotpathReps = 10
	// hotpathFollowers is the stampede size of the coalescing
	// construction.
	hotpathFollowers = 8
)

func (c HotpathConfig) withDefaults() HotpathConfig {
	if len(c.Workloads) == 0 {
		for _, w := range workloads.All() {
			c.Workloads = append(c.Workloads, w.Name)
		}
	}
	if c.Target == "" {
		c.Target = machine.DefaultTargetName
	}
	return c
}

// HotpathDeterministic is the run-to-run stable part of the artifact.
type HotpathDeterministic struct {
	Target    string   `json:"target"`
	Workloads []string `json:"workloads"`
	// Blocks and Instrs describe the corpus (every basic block of every
	// workload, compiled with default options).
	Blocks int `json:"blocks"`
	Instrs int `json:"instrs"`

	// Edge totals over the corpus: the reference builder's full
	// dependence graphs vs the reduced builder's chain-carried graphs.
	ReferenceEdges   int     `json:"reference_edges"`
	ReducedEdges     int     `json:"reduced_edges"`
	EdgeReductionPct float64 `json:"edge_reduction_pct"`

	// SchedulesIdentical reports that every block's Result — order,
	// cycles, cost — is identical on both paths; the invariant the whole
	// rework is conditioned on.
	SchedulesIdentical bool `json:"schedules_identical"`

	// Rounded allocation counts (allocations per block, nearest integer;
	// exact floats are in the timing section). The pooled build path must
	// round to 0 and the pooled build+schedule path to its single Result
	// allocation.
	BuildAllocsPerBlock    int `json:"build_allocs_per_block"`
	SchedAllocsPerBlock    int `json:"sched_allocs_per_block"`
	SchedRefAllocsPerBlock int `json:"sched_ref_allocs_per_block"`

	// Coalescing, constructed rather than raced: one leader is held in
	// flight while hotpathFollowers identical requests pile on, so the
	// hit rate is exact. Without the flight every one of those requests
	// would have run its own pass (hit rate 0).
	FlightRequests  int     `json:"flight_requests"`
	FlightLeaders   int     `json:"flight_leaders"`
	FlightCoalesced int     `json:"flight_coalesced"`
	FlightHitRate   float64 `json:"flight_hit_rate"`

	// One simulator pass over the workloads, compiled with the default
	// options and timed on the target: as compiled (NS) and with every
	// block list-scheduled for the target (LS). Over all workloads on
	// the default target these are the sums of the simulator's golden
	// pins (internal/sim/golden_test.go).
	SimNSDynInstrs int64 `json:"sim_ns_dyn_instrs"`
	SimNSCycles    int64 `json:"sim_ns_cycles"`
	SimLSDynInstrs int64 `json:"sim_ls_dyn_instrs"`
	SimLSCycles    int64 `json:"sim_ls_cycles"`
}

// HotpathTiming is the host-dependent part of the artifact.
type HotpathTiming struct {
	host
	Reps int `json:"reps"`

	// DAG construction alone, ns per block and blocks per second.
	BuildRefNsPerBlock   int64   `json:"build_ref_ns_per_block"`
	BuildNewNsPerBlock   int64   `json:"build_new_ns_per_block"`
	BuildRefBlocksPerSec int64   `json:"build_ref_blocks_per_sec"`
	BuildNewBlocksPerSec int64   `json:"build_new_blocks_per_sec"`
	BuildSpeedup         float64 `json:"build_speedup"`

	// Full pass (build + schedule), ns per block and blocks per second.
	SchedRefNsPerBlock   int64   `json:"sched_ref_ns_per_block"`
	SchedNewNsPerBlock   int64   `json:"sched_new_ns_per_block"`
	SchedRefBlocksPerSec int64   `json:"sched_ref_blocks_per_sec"`
	SchedNewBlocksPerSec int64   `json:"sched_new_blocks_per_sec"`
	SchedSpeedup         float64 `json:"sched_speedup"`

	// Exact allocation counts per block (the deterministic section holds
	// the rounded ones).
	BuildAllocsPerBlock    float64 `json:"build_allocs_per_block"`
	SchedAllocsPerBlock    float64 `json:"sched_allocs_per_block"`
	SchedRefAllocsPerBlock float64 `json:"sched_ref_allocs_per_block"`

	// The simulator, ns per executed instruction over one pass: timed on
	// the NS and the LS programs, untimed on the NS programs, and untimed
	// on the programs compiled at the training options (inlining and
	// 4-way unrolling), which is training's profiling run. One pass each
	// keeps `schedexp -check` cheap.
	SimTimedNsPerInstr   float64 `json:"sim_timed_ns_per_instr"`
	SimTimedLSNsPerInstr float64 `json:"sim_timed_ls_ns_per_instr"`
	SimUntimedNsPerInstr float64 `json:"sim_untimed_ns_per_instr"`
	SimTrainNsPerInstr   float64 `json:"sim_train_ns_per_instr"`
}

// HotpathResult is the BENCH_hotpath.json artifact's content.
type HotpathResult struct {
	Deterministic HotpathDeterministic
	Timing        HotpathTiming
}

// RunHotpath compiles the corpus and measures both scheduler paths.
func RunHotpath(cfg HotpathConfig) (*HotpathResult, error) {
	cfg = cfg.withDefaults()
	tgt, err := machine.ByName(cfg.Target)
	if err != nil {
		return nil, err
	}
	m := tgt.Model
	sort.Strings(cfg.Workloads)

	res := &HotpathResult{
		Deterministic: HotpathDeterministic{Target: tgt.Name, Workloads: cfg.Workloads},
		Timing:        HotpathTiming{host: thisHost(), Reps: hotpathReps},
	}
	det := &res.Deterministic
	tim := &res.Timing

	var corpus [][]ir.Instr
	for _, name := range cfg.Workloads {
		w := workloads.ByName(name)
		if w == nil {
			return nil, fmt.Errorf("hotpath: unknown workload %q", name)
		}
		mod, err := w.Compile()
		if err != nil {
			return nil, err
		}
		prog, err := jit.Compile(mod, jit.Options{})
		if err != nil {
			return nil, err
		}
		for _, fn := range prog.Fns {
			for _, b := range fn.Blocks {
				corpus = append(corpus, b.Instrs)
				det.Instrs += len(b.Instrs)
			}
		}
	}
	det.Blocks = len(corpus)
	if det.Blocks == 0 {
		return nil, fmt.Errorf("hotpath: empty corpus")
	}

	// Equivalence and edge counts: one sweep on each path, results
	// compared block by block.
	det.SchedulesIdentical = true
	scratch := sched.NewScratch()
	for _, instrs := range corpus {
		det.ReferenceEdges += sched.BuildDAGReference(m, instrs).NumEdges()
		det.ReducedEdges += sched.BuildDAGScratch(m, instrs, scratch).NumEdges()
		ref := sched.ScheduleInstrsReference(m, instrs)
		got := sched.ScheduleInstrsScratch(m, instrs, scratch)
		if !reflect.DeepEqual(ref, got) {
			det.SchedulesIdentical = false
		}
	}
	if det.ReferenceEdges > 0 {
		det.EdgeReductionPct = 100 * float64(det.ReferenceEdges-det.ReducedEdges) / float64(det.ReferenceEdges)
	}

	// Timing sweeps. The pooled paths reuse one scratch, matching how the
	// server's scheduling pass runs them.
	blocks := int64(det.Blocks) * hotpathReps
	buildRef := func() {
		for _, instrs := range corpus {
			sched.BuildDAGReference(m, instrs)
		}
	}
	buildNew := func() {
		for _, instrs := range corpus {
			sched.BuildDAGScratch(m, instrs, scratch)
		}
	}
	schedRef := func() {
		for _, instrs := range corpus {
			sched.ScheduleInstrsReference(m, instrs)
		}
	}
	schedNew := func() {
		for _, instrs := range corpus {
			sched.ScheduleInstrsScratch(m, instrs, scratch)
		}
	}
	tim.BuildRefNsPerBlock = timeSweepNs(buildRef) / blocks
	tim.BuildNewNsPerBlock = timeSweepNs(buildNew) / blocks
	tim.SchedRefNsPerBlock = timeSweepNs(schedRef) / blocks
	tim.SchedNewNsPerBlock = timeSweepNs(schedNew) / blocks
	tim.BuildRefBlocksPerSec = perSec(tim.BuildRefNsPerBlock)
	tim.BuildNewBlocksPerSec = perSec(tim.BuildNewNsPerBlock)
	tim.SchedRefBlocksPerSec = perSec(tim.SchedRefNsPerBlock)
	tim.SchedNewBlocksPerSec = perSec(tim.SchedNewNsPerBlock)
	if tim.BuildNewNsPerBlock > 0 {
		tim.BuildSpeedup = float64(tim.BuildRefNsPerBlock) / float64(tim.BuildNewNsPerBlock)
	}
	if tim.SchedNewNsPerBlock > 0 {
		tim.SchedSpeedup = float64(tim.SchedRefNsPerBlock) / float64(tim.SchedNewNsPerBlock)
	}

	// Allocation counts, per block. buildNew reuses the warmed scratch,
	// so its steady state is allocation-free.
	perBlock := float64(det.Blocks)
	tim.BuildAllocsPerBlock = allocsPerSweep(buildNew) / perBlock
	tim.SchedAllocsPerBlock = allocsPerSweep(schedNew) / perBlock
	tim.SchedRefAllocsPerBlock = allocsPerSweep(schedRef) / perBlock
	det.BuildAllocsPerBlock = int(math.Round(tim.BuildAllocsPerBlock))
	det.SchedAllocsPerBlock = int(math.Round(tim.SchedAllocsPerBlock))
	det.SchedRefAllocsPerBlock = int(math.Round(tim.SchedRefAllocsPerBlock))

	measureFlight(det)
	if err := measureSim(res, m, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// measureSim runs the simulator rows: one counting pass each for NS and
// LS, then one timed pass per timing row.
func measureSim(res *HotpathResult, m *machine.Model, cfg HotpathConfig) error {
	opts := training.DefaultOptions()
	compile := func(w *workloads.Workload, front jolt.Options) (*ir.Program, error) {
		mod, err := w.CompileWithOptions(front)
		if err != nil {
			return nil, err
		}
		return jit.Compile(mod, opts.JIT)
	}
	var ns, ls, train []*ir.Program
	scratch := sched.NewScratch()
	for _, name := range cfg.Workloads {
		w := workloads.ByName(name)
		p, err := compile(w, jolt.Options{})
		if err != nil {
			return err
		}
		q, err := compile(w, opts.Frontend)
		if err != nil {
			return err
		}
		l := p.Clone()
		for _, f := range l.Fns {
			for _, b := range f.Blocks {
				sched.ScheduleBlock(m, b, nil, scratch)
			}
		}
		ns, ls, train = append(ns, p), append(ls, l), append(train, q)
	}
	timed := sim.Config{Timed: true, Model: m}
	pass := func(progs []*ir.Program, cfg sim.Config) (dyn, cycles int64, err error) {
		for _, p := range progs {
			r, err := sim.Run(p, cfg)
			if err != nil {
				return 0, 0, err
			}
			dyn, cycles = dyn+r.DynInstrs, cycles+r.Cycles
		}
		return dyn, cycles, nil
	}
	det, tim := &res.Deterministic, &res.Timing
	var err error
	if det.SimNSDynInstrs, det.SimNSCycles, err = pass(ns, timed); err != nil {
		return err
	}
	if det.SimLSDynInstrs, det.SimLSCycles, err = pass(ls, timed); err != nil {
		return err
	}
	for _, r := range []struct {
		progs []*ir.Program
		cfg   sim.Config
		out   *float64
	}{
		{ns, timed, &tim.SimTimedNsPerInstr},
		{ls, timed, &tim.SimTimedLSNsPerInstr},
		{ns, sim.Config{}, &tim.SimUntimedNsPerInstr},
		{train, sim.Config{}, &tim.SimTrainNsPerInstr},
	} {
		start := time.Now()
		dyn, _, err := pass(r.progs, r.cfg)
		if err != nil {
			return err
		}
		*r.out = float64(time.Since(start).Nanoseconds()) / float64(dyn)
	}
	return nil
}

// timeSweepNs times hotpathReps calls of sweep, after one unmeasured
// warm-up.
func timeSweepNs(sweep func()) int64 {
	sweep()
	start := time.Now()
	for range hotpathReps {
		sweep()
	}
	return time.Since(start).Nanoseconds()
}

func perSec(nsPerBlock int64) int64 {
	if nsPerBlock <= 0 {
		return 0
	}
	return int64(time.Second) / nsPerBlock
}

// allocsPerSweep counts the heap allocations of one sweep() call,
// averaged over several runs on a quiesced heap (single goroutine, the
// suite is otherwise idle).
func allocsPerSweep(sweep func()) float64 {
	const reps = 10
	sweep() // warm to steady state, outside the measurement
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// measureFlight constructs the coalescing outcome instead of racing for
// it: the leader is held in flight until every follower has registered,
// so exactly one pass serves hotpathFollowers+1 requests.
func measureFlight(det *HotpathDeterministic) {
	var fl codecache.Flight
	var key codecache.Key
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		fl.Do(key, func() any {
			close(leaderIn)
			<-release
			return nil
		})
		close(done)
	}()
	<-leaderIn
	var wg sync.WaitGroup
	for range hotpathFollowers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl.Do(key, func() any { return nil })
		}()
	}
	for fl.Stats().Coalesced < hotpathFollowers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-done

	st := fl.Stats()
	det.FlightRequests = hotpathFollowers + 1
	det.FlightLeaders = int(st.Leaders)
	det.FlightCoalesced = int(st.Coalesced)
	det.FlightHitRate = float64(st.Coalesced) / (hotpathFollowers + 1)
}

// Render formats the artifact for the terminal.
func (r *HotpathResult) Render() string {
	d, t := r.Deterministic, r.Timing
	var b strings.Builder
	title := fmt.Sprintf("Scheduler hot path: reduced DAG + bucket ready list vs reference (%s, %d blocks / %d instrs)",
		d.Target, d.Blocks, d.Instrs)
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(&b, "edges: %d reference → %d reduced (%.1f%% fewer), schedules identical: %v\n",
		d.ReferenceEdges, d.ReducedEdges, d.EdgeReductionPct, d.SchedulesIdentical)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "", "reference", "new", "speedup")
	fmt.Fprintf(&b, "%-16s %10dns %10dns %8.1fx\n", "DAG build/block",
		t.BuildRefNsPerBlock, t.BuildNewNsPerBlock, t.BuildSpeedup)
	fmt.Fprintf(&b, "%-16s %10dns %10dns %8.1fx\n", "build+sched/block",
		t.SchedRefNsPerBlock, t.SchedNewNsPerBlock, t.SchedSpeedup)
	fmt.Fprintf(&b, "%-16s %11d/s %11d/s\n", "blocks/sec",
		t.SchedRefBlocksPerSec, t.SchedNewBlocksPerSec)
	fmt.Fprintf(&b, "allocs/block: build %.2f, build+sched %.2f (reference %.2f)\n",
		t.BuildAllocsPerBlock, t.SchedAllocsPerBlock, t.SchedRefAllocsPerBlock)
	fmt.Fprintf(&b, "singleflight: %d identical requests → %d pass, %d coalesced (hit rate %.1f%%; 0%% without the flight)\n",
		d.FlightRequests, d.FlightLeaders, d.FlightCoalesced, 100*d.FlightHitRate)
	fmt.Fprintf(&b, "simulator pass: ns %d instrs / %d cycles, ls %d instrs / %d cycles\n",
		d.SimNSDynInstrs, d.SimNSCycles, d.SimLSDynInstrs, d.SimLSCycles)
	fmt.Fprintf(&b, "simulator ns/instr: timed %.2f, timed-ls %.2f, untimed %.2f, train %.2f\n",
		t.SimTimedNsPerInstr, t.SimTimedLSNsPerInstr, t.SimUntimedNsPerInstr, t.SimTrainNsPerInstr)
	return b.String()
}

// Artifact returns the two sections as an artifact.
func (r *HotpathResult) Artifact() Artifact {
	return Artifact{Deterministic: r.Deterministic, Timing: r.Timing}
}
