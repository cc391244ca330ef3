// Command joltrun compiles and executes a Jolt program (or a bundled
// benchmark workload) under a chosen scheduling protocol, reporting the
// checksum, the scheduling-pass statistics, and — in timed mode — the
// simulated cycle count.
//
// Usage:
//
//	joltrun [-workload name | prog.jolt | prog.jzbc]
//	        [-policy spec] [-timed] [-interp] [-target name]
//
// -policy selects the scheduling policy by spec (always|ls, never|ns,
// size:N, cost:N, portfolio:spec+spec, rules:FILE — see
// policy.Kinds); the default is ns.
//
// -target picks the machine model (scheduling latencies and, with
// -timed, simulated cycle timing) by registry name; the default is
// mpc7410. `joltrun -target scalar1 -timed ...` times the same program
// on the single-issue variant.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/cliflags"
	"schedfilter/internal/core"
	"schedfilter/internal/interp"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "run a bundled benchmark instead of a file")
	policySpec := cliflags.Policy(flag.CommandLine, "ns", "")
	timed := flag.Bool("timed", false, "run the cycle-accurate timing simulator")
	useInterp := flag.Bool("interp", false, "run the bytecode interpreter instead of compiled code")
	target := cliflags.Target(flag.CommandLine, "machine target to schedule and time for (see machine.All)")
	flag.Parse()

	mod, err := loadModule(*workload, flag.Args())
	if err != nil {
		fatal(err)
	}

	if *useInterp {
		res, err := interp.Run(mod, 0)
		if err != nil {
			fatal(err)
		}
		for _, line := range res.Output {
			fmt.Println(line)
		}
		fmt.Printf("joltrun: interp ret=%d steps=%d\n", res.Ret, res.Steps)
		return
	}

	tgt, err := machine.ByName(*target)
	if err != nil {
		fatal(err)
	}
	m := tgt.Model
	prog, err := jit.Compile(mod, jit.Options{})
	if err != nil {
		fatal(err)
	}
	filter, err := cliflags.ResolvePolicy(*policySpec, tgt.Name)
	if err != nil {
		fatal(err)
	}
	if filter == nil {
		fatal(fmt.Errorf("-policy is empty"))
	}
	stats := core.Apply(m, prog, filter, core.Pass{})
	res, err := sim.Run(prog, sim.Config{Timed: *timed, Model: m})
	if err != nil {
		fatal(err)
	}
	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Printf("joltrun: ret=%d protocol=%s blocks=%d scheduled=%d changed=%d schedtime=%v\n",
		res.Ret, filter.Name(), stats.Blocks, stats.Scheduled, stats.Changed, stats.SchedTime)
	if *timed {
		fmt.Printf("joltrun: %d instructions in %d cycles (CPI %.2f)\n",
			res.DynInstrs, res.Cycles, float64(res.Cycles)/float64(res.DynInstrs))
	}
}

func loadModule(workload string, args []string) (*bytecode.Module, error) {
	if workload != "" {
		w := workloads.ByName(workload)
		if w == nil {
			return nil, fmt.Errorf("schedfilter: no workload named %q", workload)
		}
		return w.Compile()
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("need exactly one program file or -workload (see -h)")
	}
	path := args[0]
	if strings.HasSuffix(path, ".jzbc") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bytecode.Decode(f)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return jolt.Compile(string(src), jolt.Options{})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joltrun:", err)
	os.Exit(1)
}
