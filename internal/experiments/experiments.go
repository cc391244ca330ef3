// Package experiments regenerates every table and figure of the paper's
// evaluation: classification error rates (Table 3), predicted execution
// times (Table 4), training-set and run-time classification counts
// (Tables 5 and 6), scheduling-time and application-running-time
// comparisons without and with thresholds (Figures 1 and 2), the same on
// the suite of benchmarks that benefit from scheduling (Figure 3), and a
// sample induced rule set (Figure 4).
package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"schedfilter/internal/core"
	"schedfilter/internal/machine"
	"schedfilter/internal/par"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// Thresholds is the paper's sweep: t = 0..50 in steps of 5.
var Thresholds = []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

// schedTimeReps is how many times a scheduling pass repeats when its
// wall-clock time is measured; the minimum is reported.
const schedTimeReps = 5

// Config parameterizes a run.
type Config struct {
	// Model is the machine model (default: the registry's default
	// target, mpc7410). Resolve named targets with machine.ByName.
	Model *machine.Model
	// CompileOpts configure the pipeline (default: aggressive inlining
	// plus 4-way loop unrolling).
	CompileOpts training.Options
	// RipperOpts configure induction (default: paper labels, 2
	// optimization rounds).
	RipperOpts ripper.Options
	// Jobs bounds the worker pool the deterministic fan-outs use (data
	// collection and the threshold × benchmark grids). <= 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the serial path. Results are
	// byte-identical at every job count — wall-clock measurements
	// (SchedTime and the adaptive runs) always stay serial.
	Jobs int
}

// DefaultConfig returns the configuration used throughout EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Model:       machine.Default().Model,
		CompileOpts: training.DefaultOptions(),
		RipperOpts:  ripper.DefaultOptions(),
	}
}

// Runner caches collected benchmark data, induced filters, labelled
// datasets, and simulated application times so the full table/figure sweep
// stays fast. All caches are goroutine-safe: the grid fan-outs share one
// runner across workers, and every cached value is a pure function of its
// key, so concurrent duplicate computation (rare; the grids mostly touch
// disjoint keys) resolves to identical entries.
type Runner struct {
	cfg Config

	suiteMu sync.Mutex
	suite1  []*training.BenchData
	suite2  []*training.BenchData

	labels training.LabelCache

	mu      sync.Mutex
	filters map[string]*policy.Induced // key: suite/target/t
	appTime map[string]int64           // key: bench + decision-vector hash
}

// NewRunner builds a runner.
func NewRunner(cfg Config) *Runner {
	if cfg.Model == nil {
		cfg.Model = machine.Default().Model
	}
	return &Runner{
		cfg:     cfg,
		filters: map[string]*policy.Induced{},
		appTime: map[string]int64{},
	}
}

// Suite1 returns (collecting on first use) the SPECjvm98 stand-in data.
func (r *Runner) Suite1() ([]*training.BenchData, error) {
	r.suiteMu.Lock()
	defer r.suiteMu.Unlock()
	if r.suite1 == nil {
		data, err := training.CollectAllJobs(workloads.Suite1(), r.cfg.Model, r.cfg.CompileOpts, r.cfg.Jobs)
		if err != nil {
			return nil, err
		}
		r.suite1 = data
	}
	return r.suite1, nil
}

// Suite2 returns (collecting on first use) the FP suite data.
func (r *Runner) Suite2() ([]*training.BenchData, error) {
	r.suiteMu.Lock()
	defer r.suiteMu.Unlock()
	if r.suite2 == nil {
		data, err := training.CollectAllJobs(workloads.Suite2(), r.cfg.Model, r.cfg.CompileOpts, r.cfg.Jobs)
		if err != nil {
			return nil, err
		}
		r.suite2 = data
	}
	return r.suite2, nil
}

func (r *Runner) suite(s workloads.Suite) ([]*training.BenchData, error) {
	if s == workloads.SuiteFP {
		return r.Suite2()
	}
	return r.Suite1()
}

// Filter returns the leave-one-out filter for target at threshold t,
// cached. Labelled datasets are drawn from the runner's label cache, so a
// full sweep labels each (benchmark, threshold) pair once rather than once
// per leave-one-out target.
func (r *Runner) Filter(s workloads.Suite, target string, t int) (*policy.Induced, error) {
	key := fmt.Sprintf("%d/%s/%d", s, target, t)
	r.mu.Lock()
	f, ok := r.filters[key]
	r.mu.Unlock()
	if ok {
		return f, nil
	}
	data, err := r.suite(s)
	if err != nil {
		return nil, err
	}
	// Induce outside the lock: induction is the expensive part, it is
	// deterministic, and distinct grid cells ask for distinct keys, so
	// duplicated work only happens when two fan-outs race on the same key.
	f = training.LeaveOneOut(data, target, t, r.cfg.RipperOpts, &r.labels)
	r.mu.Lock()
	if have, ok := r.filters[key]; ok {
		f = have
	} else {
		r.filters[key] = f
	}
	r.mu.Unlock()
	return f, nil
}

// geomean computes the geometric mean of strictly positive values; zero
// values are clamped to a small epsilon as the paper's tables do
// implicitly (error rates of 0% appear in its geometric means).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x < 1e-6 {
			x = 1e-6
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// grid fans fn across the flattened (threshold × benchmark) cell space on
// the runner's worker pool. Cell (ti, bi) must write only its own slot of
// the caller's preallocated result storage; assembly into rows (and
// geomeans) stays serial in the caller, which is what makes every table
// byte-identical at any job count.
func (r *Runner) grid(nT, nB int, fn func(ti, bi int) error) error {
	return par.DoErr(r.cfg.Jobs, nT*nB, func(c int) error {
		return fn(c/nB, c%nB)
	})
}

// --- Table 3: classification error rates ---

// Table3Result holds error rates (percent) per benchmark per threshold.
type Table3Result struct {
	Benchmarks []string
	Thresholds []int
	// Err[t][b] is the percent misclassified.
	Err     [][]float64
	Geomean []float64
}

// Table3 reproduces the classification-error table via leave-one-out
// cross-validation over suite 1.
func (r *Runner) Table3() (*Table3Result, error) {
	data, err := r.Suite1()
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Thresholds: Thresholds}
	for _, bd := range data {
		res.Benchmarks = append(res.Benchmarks, bd.Name)
	}
	res.Err = make([][]float64, len(Thresholds))
	for ti := range res.Err {
		res.Err[ti] = make([]float64, len(data))
	}
	err = r.grid(len(Thresholds), len(data), func(ti, bi int) error {
		f, err := r.Filter(workloads.SuiteJVM98, data[bi].Name, Thresholds[ti])
		if err != nil {
			return err
		}
		res.Err[ti][bi] = 100 * training.ErrorRate(f, data[bi], Thresholds[ti])
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Err {
		res.Geomean = append(res.Geomean, geomean(row))
	}
	return res, nil
}

// --- Table 4: predicted execution times ---

// Table4Result holds predicted times as a percentage of never-scheduling.
type Table4Result struct {
	Benchmarks []string
	Thresholds []int
	// Ratio[t][b] is 100 * SIM(filter) / SIM(NS).
	Ratio   [][]float64
	Geomean []float64
}

// Table4 reproduces the predicted (simulated) execution-time table: the
// profile-weighted estimator cost of filtered code relative to
// unscheduled code.
func (r *Runner) Table4() (*Table4Result, error) {
	data, err := r.Suite1()
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Thresholds: Thresholds}
	for _, bd := range data {
		res.Benchmarks = append(res.Benchmarks, bd.Name)
	}
	res.Ratio = make([][]float64, len(Thresholds))
	for ti := range res.Ratio {
		res.Ratio[ti] = make([]float64, len(data))
	}
	err = r.grid(len(Thresholds), len(data), func(ti, bi int) error {
		bd := data[bi]
		f, err := r.Filter(workloads.SuiteJVM98, bd.Name, Thresholds[ti])
		if err != nil {
			return err
		}
		ns := training.PredictedTime(bd, policy.Never{})
		fl := training.PredictedTime(bd, f)
		res.Ratio[ti][bi] = 100 * float64(fl) / float64(ns)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Ratio {
		res.Geomean = append(res.Geomean, geomean(row))
	}
	return res, nil
}

// --- Table 5: training-set sizes ---

// Table5Result holds the LS training-instance count per threshold; NS is
// constant by construction.
type Table5Result struct {
	Thresholds []int
	LS         []int
	NS         int
}

// Table5 reproduces the effect of t on training-set size over suite 1.
func (r *Runner) Table5() (*Table5Result, error) {
	data, err := r.Suite1()
	if err != nil {
		return nil, err
	}
	var all []training.BlockRecord
	for _, bd := range data {
		all = append(all, bd.Records...)
	}
	res := &Table5Result{Thresholds: Thresholds}
	for _, t := range Thresholds {
		ls, ns := training.LabelCounts(all, t)
		res.LS = append(res.LS, ls)
		res.NS = ns
	}
	return res, nil
}

// --- Table 6: run-time classification counts ---

// Table6Result holds, per threshold, how many blocks the leave-one-out
// filters classified LS vs NS at run time (summed over benchmarks).
type Table6Result struct {
	Thresholds []int
	LS, NS     []int
	Total      int
}

// Table6 reproduces the run-time classification table.
func (r *Runner) Table6() (*Table6Result, error) {
	data, err := r.Suite1()
	if err != nil {
		return nil, err
	}
	res := &Table6Result{Thresholds: Thresholds}
	lsCell := make([]int, len(Thresholds)*len(data))
	nsCell := make([]int, len(Thresholds)*len(data))
	err = r.grid(len(Thresholds), len(data), func(ti, bi int) error {
		f, err := r.Filter(workloads.SuiteJVM98, data[bi].Name, Thresholds[ti])
		if err != nil {
			return err
		}
		c := ti*len(data) + bi
		lsCell[c], nsCell[c] = training.Decisions(data[bi], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti := range Thresholds {
		ls, ns := 0, 0
		for bi := range data {
			ls += lsCell[ti*len(data)+bi]
			ns += nsCell[ti*len(data)+bi]
		}
		res.LS = append(res.LS, ls)
		res.NS = append(res.NS, ns)
		res.Total = ls + ns
	}
	return res, nil
}

// --- Figures: scheduling time and application running time ---

// SchedTime measures the wall-clock scheduling-phase time of the filter
// on a fresh clone of the benchmark's program. The minimum of
// schedTimeReps repetitions is returned, along with pass statistics.
func (r *Runner) SchedTime(bd *training.BenchData, f policy.Policy) (time.Duration, core.Stats) {
	var best time.Duration
	var stats core.Stats
	for rep := range schedTimeReps {
		prog := bd.Prog.Clone()
		st := core.Apply(r.cfg.Model, prog, f, core.Pass{})
		if rep == 0 || st.SchedTime < best {
			best = st.SchedTime
			stats = st
		}
	}
	return best, stats
}

// AppTime returns the timed-simulator cycle count of the benchmark under
// the filter, cached by the filter's per-block decision vector (distinct
// thresholds often induce identical decisions).
func (r *Runner) AppTime(bd *training.BenchData, f policy.Policy) (int64, error) {
	decisions := core.Decide(bd.Prog, f)
	h := fnv.New64a()
	for _, d := range decisions {
		if d {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	key := fmt.Sprintf("%s/%x", bd.Name, h.Sum64())
	r.mu.Lock()
	c, ok := r.appTime[key]
	r.mu.Unlock()
	if ok {
		return c, nil
	}
	prog := bd.Prog.Clone()
	core.Apply(r.cfg.Model, prog, f, core.Pass{})
	res, err := sim.Run(prog, sim.Config{Timed: true, Model: r.cfg.Model})
	if err != nil {
		return 0, fmt.Errorf("%s: timed run: %w", bd.Name, err)
	}
	r.mu.Lock()
	r.appTime[key] = res.Cycles
	r.mu.Unlock()
	return res.Cycles, nil
}

// FigureResult holds one scheduling-time or app-time series: per
// benchmark per threshold, relative to the fixed baseline.
type FigureResult struct {
	Benchmarks []string
	Thresholds []int
	// Rel[t][b] is the ratio (scheduling time vs LS, or app time vs NS).
	Rel     [][]float64
	Geomean []float64
	// LSRel is the LS protocol's own app-time ratio per benchmark
	// (only for app-time figures).
	LSRel []float64
}

// SchedTimeFigure produces Figures 1(a)/2(a)/3(a): scheduling time of the
// leave-one-out filters relative to always-scheduling, per threshold.
func (r *Runner) SchedTimeFigure(s workloads.Suite, thresholds []int) (*FigureResult, error) {
	data, err := r.suite(s)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Thresholds: thresholds}
	for _, bd := range data {
		res.Benchmarks = append(res.Benchmarks, bd.Name)
	}
	// Induce every filter the figure needs up front, in parallel — filter
	// induction is deterministic, so this only moves work. The wall-clock
	// measurements below must stay serial: concurrent scheduling passes
	// would contend for cores and corrupt each other's timings.
	err = r.grid(len(thresholds), len(data), func(ti, bi int) error {
		_, err := r.Filter(s, data[bi].Name, thresholds[ti])
		return err
	})
	if err != nil {
		return nil, err
	}
	lsTime := make([]time.Duration, len(data))
	for i, bd := range data {
		lsTime[i], _ = r.SchedTime(bd, policy.Always{})
	}
	for _, t := range thresholds {
		row := make([]float64, len(data))
		for i, bd := range data {
			f, err := r.Filter(s, bd.Name, t)
			if err != nil {
				return nil, err
			}
			ft, _ := r.SchedTime(bd, f)
			row[i] = float64(ft) / float64(lsTime[i])
		}
		res.Rel = append(res.Rel, row)
		res.Geomean = append(res.Geomean, geomean(row))
	}
	return res, nil
}

// AppTimeFigure produces Figures 1(b)/2(b)/3(b): application running time
// (timed-simulator cycles) of LS and the leave-one-out filters relative
// to never-scheduling.
func (r *Runner) AppTimeFigure(s workloads.Suite, thresholds []int) (*FigureResult, error) {
	data, err := r.suite(s)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Thresholds: thresholds}
	nsCycles := make([]int64, len(data))
	lsCycles := make([]int64, len(data))
	res.LSRel = make([]float64, len(data))
	for _, bd := range data {
		res.Benchmarks = append(res.Benchmarks, bd.Name)
	}
	// Baselines fan over benchmarks; the timed simulator counts cycles
	// deterministically, so unlike SchedTimeFigure this is safe to
	// parallelize end to end.
	err = par.DoErr(r.cfg.Jobs, len(data), func(i int) error {
		bd := data[i]
		var err error
		if nsCycles[i], err = r.AppTime(bd, policy.Never{}); err != nil {
			return err
		}
		if lsCycles[i], err = r.AppTime(bd, policy.Always{}); err != nil {
			return err
		}
		res.LSRel[i] = float64(lsCycles[i]) / float64(nsCycles[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rel = make([][]float64, len(thresholds))
	for ti := range res.Rel {
		res.Rel[ti] = make([]float64, len(data))
	}
	err = r.grid(len(thresholds), len(data), func(ti, bi int) error {
		bd := data[bi]
		f, err := r.Filter(s, bd.Name, thresholds[ti])
		if err != nil {
			return err
		}
		c, err := r.AppTime(bd, f)
		if err != nil {
			return err
		}
		res.Rel[ti][bi] = float64(c) / float64(nsCycles[bi])
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rel {
		res.Geomean = append(res.Geomean, geomean(row))
	}
	return res, nil
}

// Figure4 returns a sample induced rule set: the filter trained on six of
// the seven suite-1 benchmarks at t=0 (leaving out the last), as in the
// paper's Figure 4.
func (r *Runner) Figure4() (*ripper.RuleSet, error) {
	data, err := r.Suite1()
	if err != nil {
		return nil, err
	}
	target := data[len(data)-1].Name
	f, err := r.Filter(workloads.SuiteJVM98, target, 0)
	if err != nil {
		return nil, err
	}
	return f.Rules, nil
}
