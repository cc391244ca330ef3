// Command schedtrain runs the paper's offline training pipeline: it
// compiles the bundled benchmarks, collects one instance per basic block,
// induces a Ripper filter at the chosen threshold, and prints (or writes)
// the rule set in the Figure-4 text format, along with training-set
// statistics.
//
// Usage:
//
//	schedtrain [-suite 1|2|all] [-t 20] [-loo benchmark] [-o rules.txt]
//	           [-csv instances.csv] [-stats] [-j N] [-target name]
//	           [-policy spec]
//
// -policy names a reference scheduling policy (always, never, size:N,
// cost:N, portfolio:spec+spec, rules:FILE); when set, the trained filter
// and the reference are scored side by side on the collected data —
// predicted time vs never-scheduling and blocks sent to the scheduler —
// before the rule set is written.
//
// -j N fans the per-benchmark collection (compile, profile, schedule
// experimentally) across N workers; 0 means GOMAXPROCS, 1 forces the
// serial path. The collected data — and everything induced from it — is
// identical at every -j.
//
// -target picks the machine model the labels are measured against by
// registry name (default mpc7410). The induced filter records that name;
// -o files carry it in a "# target:" header so loaders can warn when a
// filter is applied under a different machine.
//
// -cpuprofile and -memprofile capture pprof profiles of the run (the
// heap profile is written after a final GC, on exit).
package main

import (
	"flag"
	"fmt"
	"os"

	"schedfilter/internal/cliflags"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// stopProf ends profiling before any exit; fatal routes through it.
var stopProf = func() {}

func main() {
	suite := flag.String("suite", "1", "benchmark suite: 1, 2, or all")
	t := flag.Int("t", 0, "labelling threshold percent (paper sweeps 0..50)")
	loo := flag.String("loo", "", "leave this benchmark out of training (cross-validation)")
	out := flag.String("o", "", "write the rule set to this file instead of stdout")
	csvPath := flag.String("csv", "", "also dump the raw instances as CSV to this file")
	stats := flag.Bool("stats", true, "print training-set statistics")
	jobs := cliflags.Jobs(flag.CommandLine, "workers for data collection (0 = GOMAXPROCS, 1 = serial)")
	target := cliflags.Target(flag.CommandLine, "machine target to train against (see machine.All)")
	policySpec := cliflags.Policy(flag.CommandLine, "",
		"reference policy to score against the trained filter on the collected data: "+cliflags.PolicySyntax)
	prof := cliflags.Profile(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProf = stop
	defer stopProf()

	var ws []workloads.Workload
	switch *suite {
	case "1":
		ws = workloads.Suite1()
	case "2":
		ws = workloads.Suite2()
	case "all":
		ws = workloads.All()
	default:
		fatal(fmt.Errorf("bad -suite %q (want 1, 2, or all)", *suite))
	}

	tgt, err := machine.ByName(*target)
	if err != nil {
		fatal(err)
	}
	data, err := training.CollectAllJobs(ws, tgt.Model, training.DefaultOptions(), *jobs)
	if err != nil {
		fatal(err)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := training.WriteCSV(f, data); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "schedtrain: wrote instances to %s\n", *csvPath)
	}

	if *stats {
		total := 0
		for _, bd := range data {
			ls, ns := training.LabelCounts(bd.Records, *t)
			fmt.Fprintf(os.Stderr, "schedtrain: %-10s %4d blocks: %4d LS, %4d NS at t=%d\n",
				bd.Name, len(bd.Records), ls, ns, *t)
			total += len(bd.Records)
		}
		fmt.Fprintf(os.Stderr, "schedtrain: %d blocks total\n", total)
	}

	var filter *policy.Induced
	if *loo != "" {
		filter = training.LeaveOneOut(data, *loo, *t, ripper.DefaultOptions(), nil)
	} else {
		filter = training.TrainFilter(data, *t, ripper.DefaultOptions(), nil)
	}

	if *policySpec != "" {
		ref, err := cliflags.ResolvePolicy(*policySpec, tgt.Name)
		if err != nil {
			fatal(err)
		}
		comparePolicies(data, filter, ref)
	}

	if *out != "" {
		// Model files are written in the round-trippable full-precision
		// format (label header included) so the compile-server daemon can
		// boot from them with policy.LoadInducedFor.
		if err := os.WriteFile(*out, []byte(policy.FormatInduced(filter)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "schedtrain: wrote %s (%d rules)\n", *out, len(filter.Rules.Rules))
		return
	}
	fmt.Print(filter.Rules.String())
}

// comparePolicies scores the reference policy against the trained
// filter on the collected data: per-benchmark predicted time relative
// to never-scheduling, plus how many blocks each sends to the scheduler.
func comparePolicies(data []*training.BenchData, trained, ref policy.Policy) {
	fmt.Fprintf(os.Stderr, "schedtrain: %-10s %16s %16s\n", "benchmark",
		"trained %NS(LS#)", ref.Name()+" %NS(LS#)")
	for _, bd := range data {
		ns := training.PredictedTime(bd, policy.Never{})
		ft := training.PredictedTime(bd, trained)
		fr := training.PredictedTime(bd, ref)
		tls, _ := training.Decisions(bd, trained)
		rls, _ := training.Decisions(bd, ref)
		fmt.Fprintf(os.Stderr, "schedtrain: %-10s %9.2f (%4d) %9.2f (%4d)\n", bd.Name,
			100*float64(ft)/float64(ns), tls, 100*float64(fr)/float64(ns), rls)
	}
}

func fatal(err error) {
	stopProf()
	fmt.Fprintln(os.Stderr, "schedtrain:", err)
	os.Exit(1)
}
