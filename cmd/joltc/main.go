// Command joltc compiles Jolt source files to bytecode, optionally dumping
// the bytecode listing or the JIT's machine IR.
//
// Usage:
//
//	joltc [-o prog.jzbc] [-dump ast|bytecode|ir] [-inline=true] [-unroll 4]
//	      [-policy spec] [-target name] prog.jolt
//
// -policy runs the scheduling pass over the compiled program before the
// IR is dumped (always|ls, never|ns, size:N, cost:N,
// portfolio:spec+spec, rules:FILE), so `joltc -dump ir -policy ls` shows
// the instruction order the JIT would actually emit under that policy;
// -target picks the machine model the pass schedules for. Both apply
// only to -dump ir.
package main

import (
	"flag"
	"fmt"
	"os"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/cliflags"
	"schedfilter/internal/core"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
)

func main() {
	out := flag.String("o", "", "write encoded bytecode to this file")
	dump := flag.String("dump", "", "dump a phase: 'ast', 'bytecode', or 'ir'")
	inline := flag.Bool("inline", true, "enable the bytecode inliner for -dump ir")
	unroll := flag.Int("unroll", 0, "unroll factor for counted loops (0 disables)")
	policySpec := cliflags.Policy(flag.CommandLine, "",
		"-dump ir: run the scheduling pass under this policy before dumping: "+cliflags.PolicySyntax)
	target := cliflags.Target(flag.CommandLine, "-dump ir: machine target the scheduling pass runs against")
	flag.Parse()
	if *policySpec != "" && *dump != "ir" {
		fatal(fmt.Errorf("-policy only applies to -dump ir (the scheduling pass runs on machine IR)"))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: joltc [-o out.jzbc] [-dump ast|bytecode|ir] [-unroll k] prog.jolt")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opt := jolt.Options{UnrollFactor: *unroll}
	if *dump == "ast" {
		tree, err := jolt.Dump(string(src), opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(tree)
		return
	}

	mod, err := jolt.Compile(string(src), opt)
	if err != nil {
		fatal(err)
	}
	// The JIT verifies the modules it compiles; the listing and the
	// encoder do not, so verify here what they print or write.
	if *dump != "ir" {
		if err := bytecode.Verify(mod); err != nil {
			fatal(err)
		}
	}

	switch *dump {
	case "":
	case "bytecode":
		fmt.Print(mod.String())
	case "ir":
		prog, err := jit.Compile(mod, jit.Options{NoInline: !*inline})
		if err != nil {
			fatal(err)
		}
		if *policySpec != "" {
			tgt, err := machine.ByName(*target)
			if err != nil {
				fatal(err)
			}
			filter, err := cliflags.ResolvePolicy(*policySpec, tgt.Name)
			if err != nil {
				fatal(err)
			}
			stats := core.Apply(tgt.Model, prog, filter, core.Pass{})
			fmt.Fprintf(os.Stderr, "joltc: scheduled under %s on %s: %d/%d blocks scheduled, %d reordered\n",
				filter.Name(), tgt.Name, stats.Scheduled, stats.Blocks, stats.Changed)
		}
		fmt.Print(prog.String())
	default:
		fatal(fmt.Errorf("unknown -dump phase %q", *dump))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := bytecode.Encode(f, mod); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "joltc: wrote %s (%d functions, %d instructions)\n",
			*out, len(mod.Fns), mod.NumInsns())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joltc:", err)
	os.Exit(1)
}
