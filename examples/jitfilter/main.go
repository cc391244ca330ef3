// jitfilter: the paper's end-to-end story on one benchmark. Train an L/N
// filter "at the factory" (on the suite-1 workloads), install it in the
// JIT, and compare the three protocols — never schedule, always schedule,
// and filtered scheduling — on a program the filter has never seen.
package main

import (
	"fmt"
	"log"

	"schedfilter"
)

func main() {
	m := schedfilter.NewMachine()

	fmt.Println("training the filter on the suite-1 workloads (t=10)...")
	filter, err := schedfilter.TrainDefaultFilter(m, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("induced %d rules:\n%s\n", len(filter.Rules.Rules), filter.Rules)

	// Evaluate on a suite-2 benchmark the filter never saw in training.
	w, err := schedfilter.WorkloadByName("bh")
	if err != nil {
		log.Fatal(err)
	}
	mod, err := w.Compile()
	if err != nil {
		log.Fatal(err)
	}

	type row struct {
		name   string
		filter schedfilter.Policy
	}
	rows := []row{
		{"NS (never schedule)", schedfilter.NeverSchedule},
		{"LS (always schedule)", schedfilter.AlwaysSchedule},
		{"L/N (induced filter)", filter},
	}

	var nsCycles int64
	for _, r := range rows {
		prog, err := schedfilter.CompileModule(mod, schedfilter.DefaultJITOptions())
		if err != nil {
			log.Fatal(err)
		}
		stats := schedfilter.Schedule(m, prog, r.filter)
		res, err := schedfilter.Execute(prog, m, true)
		if err != nil {
			log.Fatal(err)
		}
		if nsCycles == 0 {
			nsCycles = res.Cycles
		}
		fmt.Printf("%-22s ret=%d  scheduled %3d/%3d blocks in %8v  cycles=%d (%.4f of NS)\n",
			r.name, res.Ret, stats.Scheduled, stats.Blocks, stats.SchedTime,
			res.Cycles, float64(res.Cycles)/float64(nsCycles))
	}
}
