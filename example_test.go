package schedfilter_test

import (
	"fmt"

	"schedfilter"
)

// Compile a small program, schedule every block, and execute it on the
// timed simulator.
func Example() {
	src := `
func main() int {
  var s int = 0;
  for (var i int = 1; i <= 10; i = i + 1) { s = s + i * i; }
  return s;
}`
	prog, err := schedfilter.CompileSource(src)
	if err != nil {
		panic(err)
	}
	m := schedfilter.NewMachine()
	stats := schedfilter.Schedule(m, prog, schedfilter.AlwaysSchedule)
	res, err := schedfilter.Execute(prog, m, false)
	if err != nil {
		panic(err)
	}
	fmt.Println("ret:", res.Ret, "blocks scheduled:", stats.Scheduled == stats.Blocks)
	// Output: ret: 385 blocks scheduled: true
}

// Inspect a block the way the induced filter does: cheap features plus
// the two cost estimates.
func ExampleExtractFeatures() {
	prog, err := schedfilter.CompileSource(`
func main() int {
  var a float[] = new float[4];
  a[0] = 1.5;
  a[1] = a[0] * 2.0;
  return int(a[1]);
}`)
	if err != nil {
		panic(err)
	}
	b := prog.FnByName("main").Blocks[0]
	v := schedfilter.ExtractFeatures(b)
	fmt.Println("bbLen matches:", v.BBLen() == b.Len())
	fmt.Println("has loads and stores:", v[3] > 0 || v[4] > 0)
	// Output:
	// bbLen matches: true
	// has loads and stores: true
}

// Rule sets round-trip through the paper's Figure-4 text format.
func ExampleParseRuleSet() {
	text := "(  924/  12) list :- bbLen >= 7, calls <= 0.0857, loads >= 0.3793.\n" +
		"(27476/1946) orig :- .\n"
	rs, err := schedfilter.ParseRuleSet(text)
	if err != nil {
		panic(err)
	}
	filter := schedfilter.NewRuleFilter(rs, "factory")

	var big schedfilter.FeatureVector
	big[0] = 12  // bbLen
	big[3] = 0.5 // loads
	fmt.Println("rules:", len(rs.Rules))
	fmt.Println("schedules a 12-instruction loady block:", schedfilter.Schedules(filter, big))
	// Output:
	// rules: 1
	// schedules a 12-instruction loady block: true
}

// The bundled workloads are real programs; each returns a deterministic
// checksum through the interpreter and the compiled pipeline alike.
func ExampleWorkloadByName() {
	w, err := schedfilter.WorkloadByName("compress")
	if err != nil {
		panic(err)
	}
	mod, err := w.Compile()
	if err != nil {
		panic(err)
	}
	res, err := schedfilter.Interpret(mod, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("checksum:", res.Ret)
	// Output: checksum: 1574873061
}

// The NS protocol does no work; LS schedules everything.
func ExampleSchedule() {
	prog, err := schedfilter.CompileSource(`func main() int { return 1 + 2; }`)
	if err != nil {
		panic(err)
	}
	m := schedfilter.NewMachine()
	ns := schedfilter.Schedule(m, prog.Clone(), schedfilter.NeverSchedule)
	ls := schedfilter.Schedule(m, prog.Clone(), schedfilter.AlwaysSchedule)
	fmt.Println("NS scheduled:", ns.Scheduled, "LS scheduled:", ls.Scheduled == ls.Blocks)
	// Output: NS scheduled: 0 LS scheduled: true
}
