// Quickstart: compile a small Jolt function, look at one hot basic block
// the way the filter does — cheap features, both cost estimates — and let
// the scheduler at it.
package main

import (
	"fmt"
	"log"

	"schedfilter"
)

const src = `
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
`

func main() {
	prog, err := schedfilter.CompileSource(src)
	if err != nil {
		log.Fatal(err)
	}
	m := schedfilter.NewMachine()

	// Walk the compiled blocks and show the filter's view of each.
	fmt.Println("block  len  features -> estimator cost (orig / scheduled)")
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			v := schedfilter.ExtractFeatures(b)
			before := schedfilter.EstimateCost(m, b)
			clone := b.Clone()
			res := schedfilter.ScheduleBlock(m, clone)
			marker := " "
			if res.CostAfter < res.CostBefore {
				marker = "*" // scheduling helps here
			}
			fmt.Printf("%s %s/b%-2d len=%-3d loads=%.2f floats=%.2f peis=%.2f -> %d / %d\n",
				marker, fn.Name, b.ID, v.BBLen(),
				v[3], v[7], v[9], before, res.CostAfter)
		}
	}

	// Run the program under the two fixed protocols.
	for _, f := range []schedfilter.Policy{schedfilter.NeverSchedule, schedfilter.AlwaysSchedule} {
		p := prog.Clone()
		stats := schedfilter.Schedule(m, p, f)
		res, err := schedfilter.Execute(p, m, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-3s: ret=%d cycles=%d (scheduled %d of %d blocks in %v)\n",
			f.Name(), res.Ret, res.Cycles, stats.Scheduled, stats.Blocks, stats.SchedTime)
	}
}
