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

// Look at each block of a small compiled program the way the filter
// does (cheap features, the estimator's cost before and after list
// scheduling; * marks a block scheduling helps), then run the program
// under the two fixed protocols.
func ExampleScheduleBlock() {
	prog, err := schedfilter.CompileSource(`
func dot(a float[], b float[]) float {
  var s float = 0.0;
  for (var i int = 0; i < len(a); i = i + 1) {
    s = s + a[i] * b[i];
  }
  return s;
}
func main() int {
  var n int = 64;
  var a float[] = new float[n];
  var b float[] = new float[n];
  for (var i int = 0; i < n; i = i + 1) {
    a[i] = float(i) * 0.5;
    b[i] = float(n - i);
  }
  return int(dot(a, b));
}
`)
	if err != nil {
		panic(err)
	}
	m := schedfilter.NewMachine()

	fmt.Println("block  len  features -> estimator cost (orig / scheduled)")
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			v := schedfilter.ExtractFeatures(b)
			before := schedfilter.EstimateCost(m, b)
			res := schedfilter.ScheduleBlock(m, b.Clone())
			marker := " "
			if res.CostAfter < res.CostBefore {
				marker = "*"
			}
			fmt.Printf("%s %s/b%-2d len=%-3d loads=%.2f floats=%.2f peis=%.2f -> %d / %d\n",
				marker, fn.Name, b.ID, v.BBLen(),
				v[3], v[7], v[9], before, res.CostAfter)
		}
	}

	for _, f := range []schedfilter.Policy{schedfilter.NeverSchedule, schedfilter.AlwaysSchedule} {
		p := prog.Clone()
		stats := schedfilter.Schedule(m, p, f)
		res, err := schedfilter.Execute(p, m, true)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%-3s: ret=%d cycles=%d (scheduled %d of %d blocks)\n",
			f.Name(), res.Ret, res.Cycles, stats.Scheduled, stats.Blocks)
	}
	// Output:
	// block  len  features -> estimator cost (orig / scheduled)
	// * dot/b0  len=8   loads=0.00 floats=0.25 peis=0.00 -> 7 / 6
	//   dot/b1  len=5   loads=0.20 floats=0.00 peis=0.20 -> 5 / 5
	//   dot/b2  len=1   loads=0.00 floats=0.00 peis=0.00 -> 1 / 1
	//   dot/b3  len=17  loads=0.24 floats=0.18 peis=0.24 -> 19 / 19
	//   dot/b4  len=2   loads=0.00 floats=0.50 peis=0.00 -> 4 / 4
	//   dot/b5  len=1   loads=0.00 floats=0.00 peis=0.00 -> 1 / 1
	//   main/b0  len=10  loads=0.00 floats=0.00 peis=0.00 -> 16 / 16
	//   main/b1  len=3   loads=0.00 floats=0.00 peis=0.00 -> 2 / 2
	//   main/b2  len=1   loads=0.00 floats=0.00 peis=0.00 -> 1 / 1
	// * main/b3  len=19  loads=0.11 floats=0.21 peis=0.21 -> 16 / 15
	// * main/b4  len=7   loads=0.00 floats=0.29 peis=0.00 -> 7 / 6
	//   main/b5  len=5   loads=0.20 floats=0.00 peis=0.20 -> 5 / 5
	//   main/b6  len=1   loads=0.00 floats=0.00 peis=0.00 -> 1 / 1
	//   main/b7  len=17  loads=0.24 floats=0.18 peis=0.24 -> 19 / 19
	//   main/b8  len=2   loads=0.00 floats=0.50 peis=0.00 -> 3 / 3
	//   main/b9  len=1   loads=0.00 floats=0.00 peis=0.00 -> 1 / 1
	//   main/b10 len=3   loads=0.00 floats=0.33 peis=0.00 -> 5 / 5
	//   main/b11 len=1   loads=0.00 floats=0.00 peis=0.00 -> 1 / 1
	//
	// NS : ret=21840 cycles=2727 (scheduled 0 of 18 blocks)
	//
	// LS : ret=21840 cycles=2533 (scheduled 18 of 18 blocks)
}

// The paper's end-to-end story on one benchmark: train an L/N filter "at
// the factory" on the suite-1 workloads, install it in the JIT, and
// compare the three protocols on a suite-2 program the filter has never
// seen.
func ExampleTrainDefaultFilter() {
	m := schedfilter.NewMachine()
	fmt.Println("training the filter on the suite-1 workloads (t=10)...")
	filter, err := schedfilter.TrainDefaultFilter(m, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("induced %d rules:\n%s\n", len(filter.Rules.Rules), filter.Rules)

	w, err := schedfilter.WorkloadByName("bh")
	if err != nil {
		panic(err)
	}
	mod, err := w.Compile()
	if err != nil {
		panic(err)
	}
	var nsCycles int64
	for _, r := range []struct {
		name   string
		filter schedfilter.Policy
	}{
		{"NS (never schedule)", schedfilter.NeverSchedule},
		{"LS (always schedule)", schedfilter.AlwaysSchedule},
		{"L/N (induced filter)", filter},
	} {
		prog, err := schedfilter.CompileModule(mod, schedfilter.DefaultJITOptions())
		if err != nil {
			panic(err)
		}
		stats := schedfilter.Schedule(m, prog, r.filter)
		res, err := schedfilter.Execute(prog, m, true)
		if err != nil {
			panic(err)
		}
		if nsCycles == 0 {
			nsCycles = res.Cycles
		}
		fmt.Printf("%-22s ret=%d  scheduled %3d/%3d blocks  cycles=%d (%.4f of NS)\n",
			r.name, res.Ret, stats.Scheduled, stats.Blocks,
			res.Cycles, float64(res.Cycles)/float64(nsCycles))
	}
	// Output:
	// training the filter on the suite-1 workloads (t=10)...
	// induced 5 rules:
	// (  130/   0) list :- branchs <= 0.0625, loads >= 0.3158, integers >= 0.4194.
	// (   37/   0) list :- bbLen >= 6, stores <= 0.06977, loads >= 0.2857, integers <= 0.4667, calls <= 0.
	// (   18/   2) list :- bbLen >= 5, peis >= 0.1818, stores >= 0.02381.
	// (    8/   1) list :- bbLen >= 5, integers >= 0.5556, stores >= 0.2222.
	// (   11/   0) list :- bbLen >= 5, stores <= 0.0625, loads >= 0.0625, loads <= 0.25, integers >= 0.65, peis <= 0.1.
	// ( 2046/  29) orig :- .
	//
	// NS (never schedule)    ret=105112071  scheduled   0/ 82 blocks  cycles=22491907 (1.0000 of NS)
	// LS (always schedule)   ret=105112071  scheduled  82/ 82 blocks  cycles=21289881 (0.9466 of NS)
	// L/N (induced filter)   ret=105112071  scheduled   3/ 82 blocks  cycles=22482259 (0.9996 of NS)
}

// Run a program on the adaptive optimization system. The program starts
// in the baseline (unscheduled) tier; a sampling profiler finds the hot
// functions, a cost/benefit controller promotes them, recompiles them
// with filter-gated scheduling at the promoting sample, and hot-swaps
// them in at safe points — the Jikes-RVM-style setting the paper's
// whether-to-schedule filters were built for. The run is deterministic,
// cold-start transient included.
func ExampleExecuteAdaptive() {
	// A scheduling-sensitive FP workload: repeated stencil sweeps over
	// an array, with enough iterations that the sampler sees the kernel
	// get hot.
	const src = `
func sweep(a float[], b float[]) float {
  var n int = len(a);
  var acc float = 0.0;
  for (var i int = 1; i < n - 1; i = i + 1) {
    var v float = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    b[i] = v;
    acc = acc + v * v;
  }
  return acc;
}
func main() int {
  var n int = 256;
  var a float[] = new float[n];
  var b float[] = new float[n];
  for (var i int = 0; i < n; i = i + 1) {
    a[i] = float(i % 17) * 0.3;
  }
  var acc float = 0.0;
  for (var round int = 0; round < 60; round = round + 1) {
    acc = acc + sweep(a, b);
    var t float[] = a;
    a = b;
    b = t;
  }
  return int(acc);
}
`
	mod, err := schedfilter.CompileJolt(src)
	if err != nil {
		panic(err)
	}
	prog, err := schedfilter.CompileModule(mod, schedfilter.DefaultJITOptions())
	if err != nil {
		panic(err)
	}
	m := schedfilter.NewMachine()

	// The two offline reference points.
	baseline, err := schedfilter.Execute(prog.Clone(), m, true)
	if err != nil {
		panic(err)
	}
	scheduled := prog.Clone()
	schedfilter.Schedule(m, scheduled, schedfilter.AlwaysSchedule)
	ls, err := schedfilter.Execute(scheduled, m, true)
	if err != nil {
		panic(err)
	}

	// The adaptive run: cheap size filter in the optimized tier (a real
	// JIT would ship an induced one — see ExampleTrainFilter).
	cfg := schedfilter.DefaultAdaptiveConfig(m, schedfilter.SizeFilter(8))
	cfg.Module = mod       // recompile promoted functions from bytecode
	cfg.SampleEvery = 2000 // the demo program is small; sample eagerly
	res, err := schedfilter.ExecuteAdaptive(prog, cfg)
	if err != nil {
		panic(err)
	}
	mt := res.Metrics

	fmt.Println("protocol                     cycles")
	fmt.Printf("never schedule (baseline) %9d\n", baseline.Cycles)
	fmt.Printf("always schedule (LS)      %9d\n", ls.Cycles)
	fmt.Printf("adaptive, online          %9d\n", res.Online.Cycles)
	fmt.Printf("adaptive, steady state    %9d\n", res.Steady.Cycles)
	fmt.Printf("%d samples, %d promotions, %d hot-swapped online (+%d at shutdown)\n",
		mt.Samples, mt.Promotions, mt.Installed, mt.InstalledPost)
	fmt.Printf("scheduled %d of %d hot blocks, %d actually changed\n",
		mt.BlocksScheduled, mt.BlocksConsidered, mt.BlocksChanged)
	if gain := baseline.Cycles - ls.Cycles; gain > 0 {
		rec := float64(baseline.Cycles-res.Steady.Cycles) / float64(gain)
		fmt.Printf("steady state recovers %.0f%% of the LS improvement\n", 100*rec)
	}
	// Output:
	// protocol                     cycles
	// never schedule (baseline)    743321
	// always schedule (LS)         590168
	// adaptive, online             591081
	// adaptive, steady state       590169
	// 342 samples, 2 promotions, 2 hot-swapped online (+0 at shutdown)
	// scheduled 5 of 16 hot blocks, 4 actually changed
	// steady state recovers 100% of the LS improvement
}

// The paper's learning methodology in miniature: collect training
// instances from the bundled suite-1 benchmarks, run leave-one-out
// cross-validation at a few thresholds, and print one induced rule set
// in the paper's Figure-4 style.
func ExampleTrainFilter() {
	m := schedfilter.NewMachine()
	opts := schedfilter.DefaultCompileOptions()

	var data []*schedfilter.BenchData
	for _, w := range schedfilter.WorkloadsSuite1() {
		bd, err := schedfilter.CollectTrainingData(&w, m, opts)
		if err != nil {
			panic(err)
		}
		data = append(data, bd)
		fmt.Printf("collected %-10s %4d blocks\n", bd.Name, len(bd.Records))
	}

	fmt.Println("\nleave-one-out cross-validation (classification error, %):")
	fmt.Printf("%-10s", "t")
	for _, bd := range data {
		fmt.Printf(" %10s", bd.Name)
	}
	fmt.Println()
	for _, t := range []int{0, 10, 20} {
		fmt.Printf("%-10d", t)
		for _, bd := range data {
			f := schedfilter.TrainLeaveOneOut(data, bd.Name, t, schedfilter.DefaultRipperOptions())
			fmt.Printf(" %9.2f%%", 100*classificationError(f, bd, t))
		}
		fmt.Println()
	}

	fmt.Println("\na filter trained on all seven benchmarks at t=0 (Figure-4 style):")
	final := schedfilter.TrainFilter(data, 0, schedfilter.DefaultRipperOptions())
	fmt.Print(final.Rules.String())
	// Output:
	// collected compress    147 blocks
	// collected jess        944 blocks
	// collected db          308 blocks
	// collected javac       141 blocks
	// collected mpegaudio   157 blocks
	// collected raytrace    221 blocks
	// collected jack        675 blocks
	//
	// leave-one-out cross-validation (classification error, %):
	// t            compress       jess         db      javac  mpegaudio   raytrace       jack
	// 0               8.84%      4.98%      9.42%     11.35%      9.55%      9.50%      3.41%
	// 10              3.70%      7.81%      5.78%      7.35%      4.93%      6.56%      2.75%
	// 20              3.82%      1.56%      1.63%      2.99%      0.00%      0.57%      2.87%
	//
	// a filter trained on all seven benchmarks at t=0 (Figure-4 style):
	// (  258/   2) list :- branchs <= 0.07692, bbLen >= 21, branchs >= 0.03125.
	// (  108/   0) list :- branchs <= 0.07692, bbLen >= 17, loads >= 0.2353, integers >= 0.4211, peis <= 0.2105.
	// (   11/   0) list :- bbLen >= 9, loads <= 0.375, peis >= 0.125, loads <= 0.1667.
	// (   25/   0) list :- bbLen >= 5, branchs <= 0.07692, bbLen >= 16, integers <= 0.3529.
	// (   11/   0) list :- bbLen >= 6, integers >= 0.5238, stores >= 0.2, stores >= 0.25.
	// (   14/   0) list :- bbLen >= 5, bbLen >= 13, systems >= 0.05882.
	// (   18/   3) list :- bbLen >= 5, stores <= 0.07692, bbLen >= 6, loads >= 0.1667, integers >= 0.6429.
	// (   10/   2) list :- bbLen >= 5, branchs <= 0.0625, stores >= 0.2.
	// (   48/  22) list :- bbLen >= 5, stores <= 0.07692, integers <= 0.5625, integers >= 0.4.
	// (    5/   0) list :- bbLen >= 5, calls >= 0.05556, floats >= 0.7778.
	// (   10/   0) list :- branchs <= 0.1667, peis >= 0.2, loads >= 0.4.
	// (    5/   0) list :- bbLen >= 5, stores >= 0.2222, stores <= 0.25.
	// ( 2020/  21) orig :- .
}

// classificationError recomputes the paper's test-set error: over the
// held-out benchmark's labelled instances, how often does the filter
// disagree with the label?
func classificationError(f schedfilter.Policy, bd *schedfilter.BenchData, t int) float64 {
	total, wrong := 0, 0
	for i := range bd.Records {
		r := &bd.Records[i]
		var label bool
		switch {
		case r.CostLS >= r.CostNS:
			label = false
		case 100*r.CostLS < r.CostNS*(100-t):
			label = true
		default:
			continue // dropped by the threshold, as in the paper
		}
		total++
		if schedfilter.Schedules(f, r.Feat) != label {
			wrong++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}
