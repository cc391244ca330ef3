package sim_test

import (
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// BenchmarkRun measures the simulator over the bundled programs, timed
// (cycle pipeline on the default target) and untimed, compiled at default
// options; timed again with every block list-scheduled for that target
// (timed-ls), since the execute service times partly scheduled code; and
// untimed at the training pipeline's options (inlining plus 4-way
// unrolling), which is the profiling run behind training labels. One
// iteration runs all of them; ns/dyn_instr is the cost per executed
// machine instruction.
func BenchmarkRun(b *testing.B) {
	m := machine.Default().Model
	var progs, ls, train []*ir.Program
	for _, w := range workloads.All() {
		p := compileDefault(b, &w)
		progs = append(progs, p)
		p = p.Clone()
		listSchedule(m, p)
		ls = append(ls, p)
		train = append(train, compileWorkload(b, w.Name))
	}
	for _, bc := range []struct {
		name  string
		progs []*ir.Program
		cfg   sim.Config
	}{
		{"timed", progs, sim.Config{Timed: true, Model: m}},
		{"timed-ls", ls, sim.Config{Timed: true, Model: m}},
		{"untimed", progs, sim.Config{}},
		{"train", train, sim.Config{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var dyn int64
			for i := 0; i < b.N; i++ {
				for _, p := range bc.progs {
					res, err := sim.Run(p, bc.cfg)
					if err != nil {
						b.Fatal(err)
					}
					dyn += res.DynInstrs
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dyn), "ns/dyn_instr")
		})
	}
}
