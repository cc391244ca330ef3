// Command bench is the repository's benchmark. It runs one workload
// against the system in this process, checks every answer against an
// oracle, and prints its metrics by name with their units.
//
// The schedule-warm, schedule-unique and execute workloads drive the
// compile service (internal/server behind an in-process HTTP listener,
// default configuration, the factory model as default policy) from a
// closed loop of two callers on two keep-alive connections. The train
// workload runs the paper's offline pipeline in-process, one round after
// another. See README.md for why each workload exists.
//
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) keeps spans in memory, replays the first passes through the
// layers' entry points, prints the per-layer metrics and writes the spans
// to a file. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload schedule-warm -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload execute -seed 1 -seconds 20 -trace 1
//	bash bench/run.sh -repeat 5 -seconds 20
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"schedfilter"
	"schedfilter/internal/obs"
)

const (
	// clients is the closed loop's caller count and connection count,
	// one per CPU of the 2-CPU hosts the benchmark was sized on.
	clients = 2
	// setups is how many times a run sets the system up; setup_s is
	// the median.
	setups = 3
	// replayPasses is how many passes over the programs a traced run
	// replays through the layers.
	replayPasses = 5
	// opTimeout fails an operation that takes longer.
	opTimeout = 10 * time.Second
)

var workloadNames = []string{"schedule-warm", "schedule-unique", "execute", "train"}

type config struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	traceFile string
	// root is the repository checkout the factory model is read from.
	root string
	// programs names the bundled programs to run; empty means all.
	programs []string
	// tamper, when set, edits every answer of the timed phase before it
	// is checked, so a test can show that a wrong answer counts as failed.
	tamper func(any)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta says where a result came from.
type runMeta struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Traced     bool    `json:"traced"`
	Setups     int     `json:"setups"`
	// Samples is the number of timed operations behind each latency
	// percentile; BeyondP90 and BeyondP99 count those above it.
	Samples   int `json:"samples"`
	BeyondP90 int `json:"samples_beyond_p90"`
	BeyondP99 int `json:"samples_beyond_p99"`
}

// def names a metric and its unit. inJSON marks the metrics a run's
// result line carries (the ones BENCHMARK.json lists); the others are
// printed in the tables only.
type def struct {
	name, unit string
	inJSON     bool
}

var endToEndDefs = []def{
	{"setup_s", "s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_p90_ms", "ms", true},
	{"throughput_ops", "ops/s", true},
	{"cpu_ms_per_op", "ms", true},
	{"peak_rss_mb", "MB", true},
	{"app_cycles", "cycles", true},
	{"error_rate", "ratio", false},
}

// layerDefs lists the per-layer metrics. The ones in the result line are
// measured on every workload; the rest exist only where the workload
// reaches the layer and print as "-" elsewhere.
var layerDefs = []def{
	{"latency_p99_ms", "ms", true},
	{"replay.op_ms", "ms", true},
	{"jolt.compile_ms", "ms", true},
	{"jit.compile_ms", "ms", true},
	{"jit.blocks", "count", true},
	{"jit.instrs", "count", true},
	{"sched.ns_per_block", "ns", true},
	{"sched.runs_per_op", "count", true},
	{"policy.scheduled_frac", "ratio", true},
	{"codecache.hit_rate", "ratio", true},
	{"server.refused", "count", true},
	{"replay_coverage", "ratio", true},
	{"trace_overhead_pct", "%", true},
	{"server.queue_wait_ms", "ms", false},
	{"server.unattributed_ms", "ms", false},
	{"server.outside_trace_ms", "ms", false},
	{"features.extract_us", "us", false},
	{"policy.decide_us", "us", false},
	{"codecache.fingerprint_us", "us", false},
	{"codecache.lookup_ms", "ms", false},
	{"codecache.coalesced_frac", "ratio", false},
	{"sched.dag_build_ms", "ms", false},
	{"sched.list_schedule_ms", "ms", false},
	{"sched.estimator_ms", "ms", false},
	{"sim.run_ms", "ms", false},
	{"sim.ns_per_dyn_instr", "ns", false},
	{"sim.profile_ms", "ms", false},
	{"training.collect_ms", "ms", false},
	{"training.records", "count", false},
	{"ripper.induce_ms", "ms", false},
	{"ripper.rules", "count", false},
}

// workload is the system under test set up for one traffic mix.
type workload interface {
	// clients is the number of closed-loop callers.
	clients() int
	// passLen is the number of operations in one pass over the programs.
	passLen() int
	// setUp builds the system and warms it with one pass over the
	// programs; setup_s times it. It runs several times, with a tearDown
	// between; first marks the first time.
	setUp(first bool) error
	tearDown()
	// op runs operation seq of caller c.
	op(c *caller, seq int) sample
	// appCycles is the simulated run time of the code the workload's
	// configuration produces, over one pass of the programs, and the
	// requests it took to find out.
	appCycles() (cycles int64, attempted, failed int)
	// layers derives layer metrics from the timed operations.
	layers(ss []sample) map[string]metric
	// replay runs the first passes again in-process through the layers'
	// entry points, recording spans, and derives layer metrics from them.
	replay(rec *recorder, passes int) (map[string]metric, error)
}

// sample is one timed operation as its caller saw it. Traced runs keep
// every sample; it holds no pointers, so they add no marking work to the
// GC of the process they measure.
type sample struct {
	start, end int64 // nanoseconds since the timed phase began
	pass       int
	failed     bool
	refused    bool
	coalesced  bool
	blocks     int
	scheduled  int
	hits       int
	runs       int // list-scheduler runs
	cycles     int64
	dynInstrs  int64
	// traced marks an answer that carried the server's trace: its total,
	// the sum of its spans, and the spans named in serverPhases.
	traced    bool
	serverNs  int64
	spannedNs int64
	phaseNs   [len(serverPhases)]int64
}

// serverPhases are the server spans a sample keeps.
var serverPhases = [...]string{
	obs.PhaseQueueWait, obs.PhaseCompile, obs.PhaseCacheLookup, obs.PhaseDAGBuild,
	obs.PhaseListSchedule, obs.PhaseEstimator, obs.PhaseSim,
}

func (s *sample) setTrace(t *obs.TraceInfo) {
	if t == nil {
		return
	}
	s.traced, s.serverNs = true, t.TotalNs
	for _, sp := range t.Spans {
		s.spannedNs += sp.Ns
	}
	for i, p := range serverPhases {
		s.phaseNs[i] = t.SpanNs(p)
	}
}

// phase is the duration of the named server span, 0 when absent.
func (s *sample) phase(name string) int64 {
	for i, p := range serverPhases {
		if p == name {
			return s.phaseNs[i]
		}
	}
	return 0
}

// caller is one closed-loop client: it works through the programs in a
// new seeded order each pass.
type caller struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newCaller(seed int64, id, n int) *caller {
	return &caller{rng: rand.New(rand.NewSource(seed*7919 + int64(id))), n: n}
}

// next returns the program and pass of operation seq; ops must be asked
// for in order.
func (c *caller) next(seq int) (prog, pass int) {
	if seq%c.n == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	return c.perm[seq%c.n], seq / c.n
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the callers' program orders and salts")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 for a traced run: per-layer metrics and a span file")
	flag.StringVar(&cfg.traceFile, "trace-file", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to read the factory model from")
	repeat := flag.Int("repeat", 0, "run the workload (or every workload) this many times in child processes, seeds seed..seed+N-1, and print each end-to-end metric's spread")
	flag.Parse()
	cfg.duration = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *repeat > 0 {
		if err := repeatRuns(cfg, *repeat, *seconds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func newWorkload(cfg config) (workload, error) {
	var ws []schedfilter.Workload
	for _, w := range schedfilter.Workloads() {
		if len(cfg.programs) == 0 || slices.Contains(cfg.programs, w.Name) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("no bundled program among %v", cfg.programs)
	}
	switch cfg.workload {
	case "schedule-warm", "schedule-unique", "execute":
		return newHTTPWorkload(cfg, ws)
	case "train":
		return newTrainWorkload(cfg, ws), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// run measures one workload and prints its tables to out.
func run(cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(i == 0); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.tearDown()

	origin := time.Now()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(origin)
	}
	u0 := getUsage()
	lp := closedLoop(w, cfg.seed, origin, cfg.duration, rec)
	u1 := getUsage()
	cycles, extraAttempted, extraFailed := w.appCycles()
	if lp.attempted == 0 {
		return nil, errors.New("no operation ran")
	}

	res := &result{Attempted: lp.attempted + extraAttempted, Failed: lp.failed + extraFailed}
	res.Correct = res.Failed == 0
	lat := make([]float64, len(lp.lat))
	for i, l := range lp.lat {
		lat[i] = float64(l)
	}
	throughput := 0.0
	if len(lat) > 0 {
		throughput = float64(len(lat)) / (float64(lp.last) / 1e9)
	}
	e2e := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"latency_p50_ms": {percentile(lat, 0.5), "ms"},
		"latency_p90_ms": {percentile(lat, 0.9), "ms"},
		"throughput_ops": {throughput, "ops/s"},
		"cpu_ms_per_op":  {ms((u1.cpu - u0.cpu).Nanoseconds()) / float64(lp.attempted), "ms"},
		"peak_rss_mb":    {float64(u1.maxRSSk) / 1024, "MB"},
		"app_cycles":     {float64(cycles), "cycles"},
		"error_rate":     {ratio(res.Failed, res.Attempted), "ratio"},
	}
	meta := runMeta{
		Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.duration.Seconds(), Clients: w.clients(),
		Traced: cfg.trace, Setups: setups,
		Samples: len(lat), BeyondP90: beyond(len(lat), 0.9), BeyondP99: beyond(len(lat), 0.99),
	}
	metaLine, _ := json.Marshal(meta) // plain struct; cannot fail
	fmt.Fprintf(out, "# meta %s\n", metaLine)
	title := "end-to-end"
	if cfg.trace {
		title = "end-to-end, traced run (the gated numbers come from untraced runs)"
	}
	printTable(out, title, endToEndDefs, e2e)
	if !cfg.trace {
		res.Metrics = pick(endToEndDefs, e2e)
		return res, nil
	}

	layers := w.layers(lp.samples)
	rl, err := w.replay(rec, replayPasses)
	if err != nil {
		return nil, err
	}
	for k, v := range rl {
		layers[k] = v
	}
	layers["latency_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	layers["replay.op_ms"] = metric{percentile(rec.durations("replay.op"), 0.5) / 1e6, "ms"}
	layers["jolt.compile_ms"] = metric{percentile(rec.durations("jolt.compile"), 0.5) / 1e6, "ms"}
	layers["jit.compile_ms"] = metric{percentile(rec.durations("jit.compile"), 0.5) / 1e6, "ms"}
	layers["replay_coverage"] = metric{rec.coverage("replay.op"), "ratio"}
	// Every other pass was traced; the untraced ones are the baseline.
	var on, off []float64
	for _, s := range lp.samples {
		if s.failed {
			continue
		}
		if s.pass%2 == 1 {
			on = append(on, ms(s.end-s.start))
		} else {
			off = append(off, ms(s.end-s.start))
		}
	}
	if p := percentile(off, 0.5); p > 0 && len(on) > 0 {
		layers["trace_overhead_pct"] = metric{100 * (percentile(on, 0.5) - p) / p, "%"}
	}
	printTable(out, "per-layer (traced run)", layerDefs, layers)
	if err := rec.write(cfg.traceFile, meta, layers); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# spans written to %s\n", cfg.traceFile)
	res.Metrics = pick(layerDefs, layers)
	for _, d := range layerDefs {
		if _, ok := res.Metrics[d.name]; d.inJSON && !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", d.name)
		}
	}
	return res, nil
}

// loop is what the closed loop keeps of its operations.
type loop struct {
	// lat is each successful operation's latency in ms. It is float32 so
	// that a long run's record stays small beside the heap of the server
	// it shares a process with.
	lat               []float32
	attempted, failed int
	last              int64    // end of the last operation, ns since the timed phase began
	samples           []sample // traced runs only: every operation in full
}

// closedLoop runs every caller for d, each sending its next operation
// only when the last one has finished. With rec set, every other pass is
// traced: each of its operations becomes a root span "op" with the
// server's phases as children. A traced caller runs at least two passes,
// one of each kind, however short d is.
func closedLoop(w workload, seed int64, origin time.Time, d time.Duration, rec *recorder) loop {
	n := w.clients()
	per := make([]loop, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(l *loop, id int) {
			defer wg.Done()
			c := newCaller(seed, id, w.passLen())
			minOps := 0
			if rec != nil {
				minOps = 2 * w.passLen()
			}
			for seq := 0; seq < minOps || time.Since(origin) < d; seq++ {
				start := time.Since(origin).Nanoseconds()
				s := w.op(c, seq)
				s.start, s.end = start, time.Since(origin).Nanoseconds()
				l.attempted++
				l.last = max(l.last, s.end)
				if s.failed {
					l.failed++
				} else {
					l.lat = append(l.lat, float32(ms(s.end-s.start)))
				}
				if rec != nil {
					if s.pass%2 == 1 {
						traceOp(rec, s)
					}
					l.samples = append(l.samples, s)
				}
			}
		}(&per[id], id)
	}
	wg.Wait()
	var all loop
	for _, l := range per {
		all.lat = append(all.lat, l.lat...)
		all.samples = append(all.samples, l.samples...)
		all.attempted += l.attempted
		all.failed += l.failed
		all.last = max(all.last, l.last)
	}
	return all
}

func traceOp(rec *recorder, s sample) {
	root, op := rec.root("op", s.start)
	rec.setEnd(root, s.end)
	for i, p := range serverPhases {
		if ns := s.phaseNs[i]; ns > 0 {
			rec.add(span{Parent: root, Op: op, Name: "server." + p, Start: s.start, End: s.start + ns, DurationOnly: true})
		}
	}
}

func pick(defs []def, m map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		if v, ok := m[d.name]; ok && d.inJSON {
			out[d.name] = v
		}
	}
	return out
}

func printTable(out io.Writer, title string, defs []def, m map[string]metric) {
	fmt.Fprintf(out, "# %s\n", title)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			fmt.Fprintf(out, "%-26s %14s %s\n", d.name, "-", d.unit)
			continue
		}
		fmt.Fprintf(out, "%-26s %14.6g %s\n", d.name, v.Value, d.unit)
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// repeatRuns runs the workloads n times each, alternating them, every run
// in its own child process, and prints each end-to-end metric's median,
// quartiles and spreads, next to its bound when BENCHMARK.json is there.
func repeatRuns(cfg config, n, seconds int, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	bounds := readBounds(filepath.Join(cfg.root, "BENCHMARK.json"))
	vals := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-root", cfg.root)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, r.Failed, r.Attempted)
			}
			fmt.Fprintf(out, "# run %d/%d %s seed %d: %s\n", i+1, n, name, seed, lines[len(lines)-1])
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				vals[name][k] = append(vals[name][k], m.Value)
			}
		}
	}
	fmt.Fprintf(out, "%-16s %-16s %12s %12s %12s %9s %9s %7s\n",
		"workload", "metric", "q1", "median", "q3", "iqr/med", "range/med", "bound")
	for _, name := range names {
		keys := make([]string, 0, len(vals[name]))
		for k := range vals[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := vals[name][k]
			lo, hi := slices.Min(xs), slices.Max(xs)
			q1, q2, q3 := median(xs), median(xs), median(xs)
			if len(xs) >= 2 {
				q1, q2, q3 = quartiles(xs)
			}
			b := "-"
			if v, ok := bounds[k]; ok {
				b = fmt.Sprintf("%.3f", v)
			}
			fmt.Fprintf(out, "%-16s %-16s %12.6g %12.6g %12.6g %9.4f %9.4f %7s\n",
				name, k, q1, q2, q3, rel(q3-q1, q2), rel(hi-lo, q2), b)
		}
	}
	return nil
}

func rel(d, m float64) float64 {
	if m == 0 {
		return 0
	}
	return d / m
}

// readBounds returns BENCHMARK.json's end-to-end bounds by metric name,
// or nothing when the file is absent or unreadable.
func readBounds(path string) map[string]float64 {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(buf, &b) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
