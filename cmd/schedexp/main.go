// Command schedexp regenerates the paper's evaluation — every table and
// figure, printed as text in the paper's shape — and the extension
// experiments. Every experiment checks its results in as a BENCH_*.json
// artifact.
//
// Usage:
//
//	schedexp -exp paper                   # the paper's tables and figures (~9 s at -j 2)
//	schedexp -exp all                     # every experiment
//	schedexp -exp paper -target wide4     # the paper tables under another machine
//	schedexp -exp adaptive -json          # ...and write its artifact, BENCH_adaptive.json
//	schedexp -exp policies -policy always,size:5   # the policy matrix with explicit rows
//	schedexp -check                       # regenerate every artifact, compare with the checked-in files
//	schedexp -exp online -check           # ...one artifact
//
// Experiments: paper (Tables 1–7, Figures 1–4, the superblock, model
// and ablation studies), adaptive, targets, policies, online, cluster,
// hotpath, and all.
//
// -target picks the machine model the experiments run against by
// registry name (default mpc7410; see machine.All). The
// targets experiment ignores it — it sweeps its own train×eval grid —
// and so do policies, which sweeps the registry's matrix targets, online
// and cluster. -policy overrides the policies experiment's rows with a
// comma-separated list of policy specs (always, never, size:N, cost:N,
// portfolio:spec+spec, or "ripper" for the per-target trained filter).
//
// -j N bounds the experiment engine's worker pool (default: GOMAXPROCS).
// Every table, figure and artifact's deterministic section is
// byte-identical at any -j; wall-clock measurements (scheduling-time
// figures, the adaptive runs) always stay serial. -j 1 forces the fully
// serial engine.
//
// Every artifact has one shape, {"deterministic": …, "timing": …} (see
// experiments.Artifact). -json writes the artifacts of the experiments
// that ran. -check runs them without printing their text, compares each
// file's deterministic section, compacted, byte for byte with the
// regenerated one, ignores timing, prints one verdict line per file, and
// exits non-zero on any mismatch or missing file. The checked-in files
// are made with the default target and rows, so -check refuses -target,
// -policy and -json.
//
// -cpuprofile and -memprofile capture pprof profiles of the run (the
// heap profile is written after a final GC, on exit).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"schedfilter/internal/cliflags"
	"schedfilter/internal/experiments"
	"schedfilter/internal/machine"
)

func main() {
	o, prof, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedexp:", err)
		os.Exit(2)
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedexp:", err)
		os.Exit(1)
	}
	start := time.Now()
	err = run(o)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedexp:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "schedexp: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// options is one invocation's settings.
type options struct {
	exp      string   // experiment name, or "all"
	jobs     int      // worker pool size (0 = GOMAXPROCS)
	target   string   // machine target; "" = default
	policies []string // policies experiment rows; nil = the built-in grid
	json     bool     // write the artifacts of the experiments that ran
	check    bool     // compare regenerated artifacts with the checked-in files
}

func parseFlags(args []string) (options, *cliflags.ProfileFlags, error) {
	fs := flag.NewFlagSet("schedexp", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.exp, "exp", "all", "which experiment to run (see package doc)")
	fs.BoolVar(&o.json, "json", false, "also write each artifact experiment's BENCH_*.json file")
	fs.BoolVar(&o.check, "check", false, "regenerate the BENCH_*.json artifacts and compare their deterministic sections with the checked-in files")
	jobs := cliflags.Jobs(fs, "worker pool size for the experiment engine (0 = GOMAXPROCS, 1 = serial)")
	target := cliflags.TargetDefault(fs, "", "machine target the experiments run against (default: "+machine.DefaultTargetName+")")
	policies := fs.String("policy", "", "policies experiment: comma-separated policy specs for the matrix rows (default: the built-in grid; \"ripper\" names the per-target trained filter)")
	prof := cliflags.Profile(fs)
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if fs.NArg() > 0 {
		return o, nil, fmt.Errorf("unexpected argument %q: schedexp takes flags only (-json takes no value)", fs.Arg(0))
	}
	o.jobs, o.target = *jobs, *target
	for _, spec := range strings.Split(*policies, ",") {
		if spec = strings.TrimSpace(spec); spec != "" {
			o.policies = append(o.policies, spec)
		}
	}
	if o.check && (o.target != "" || o.policies != nil || o.json) {
		return o, nil, errors.New("-check compares with the checked-in artifacts, which use the defaults: drop -target, -policy and -json")
	}
	return o, prof, nil
}

// result is what an experiment returns.
type result interface {
	Render() string
	Artifact() experiments.Artifact
}

// env is what an experiment runs with.
type env struct {
	options
	cfg experiments.Config
	r   *experiments.Runner
}

// artifacts are the experiments, each with a checked-in BENCH_*.json
// file, in the order -exp all runs them.
// -json writes the file; -check regenerates it and compares.
var artifacts = []struct {
	name, file string
	run        func(e env) (result, error)
}{
	{"paper", "BENCH_paper.json", func(e env) (result, error) { return e.r.Paper() }},
	{"adaptive", "BENCH_adaptive.json", func(e env) (result, error) { return e.r.Adaptive(0) }},
	{"targets", "BENCH_targets.json", func(e env) (result, error) { return experiments.CrossTargets(e.cfg, nil, 0) }},
	{"policies", "BENCH_policies.json", func(e env) (result, error) {
		return experiments.CrossPolicies(e.cfg, nil, e.policies, 0)
	}},
	{"online", "BENCH_online.json", func(e env) (result, error) { return experiments.RunOnline(e.cfg) }},
	{"cluster", "BENCH_cluster.json", func(e env) (result, error) { return runCluster(e.jobs) }},
	{"hotpath", "BENCH_hotpath.json", func(e env) (result, error) {
		return experiments.RunHotpath(experiments.HotpathConfig{Target: e.target})
	}},
}

func run(o options) error {
	cfg := experiments.DefaultConfig()
	cfg.Jobs = o.jobs
	if o.target != "" {
		tgt, err := machine.ByName(o.target)
		if err != nil {
			return err
		}
		cfg.Model = tgt.Model
	}
	all := o.exp == "all"
	did := false
	e := env{options: o, cfg: cfg, r: experiments.NewRunner(cfg)}
	checked, failed := 0, 0
	for _, a := range artifacts {
		if !all && o.exp != a.name {
			continue
		}
		did = true
		res, err := a.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		switch {
		case o.check:
			checked++
			if err := checkArtifact(a.file, res.Artifact()); err != nil {
				failed++
				fmt.Printf("FAIL %s: %v\n", a.file, err)
			} else {
				fmt.Printf("ok   %s\n", a.file)
			}
		case o.json:
			fmt.Println(res.Render())
			if err := writeArtifact(a.file, res.Artifact()); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "schedexp: wrote %s\n", a.file)
		default:
			fmt.Println(res.Render())
		}
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}
	if failed > 0 {
		return fmt.Errorf("check: %d of %d artifacts differ from the checked-in files", failed, checked)
	}
	return nil
}
