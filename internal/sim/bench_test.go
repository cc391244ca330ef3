package sim_test

import (
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// BenchmarkRun measures the simulator over the bundled programs, timed
// (cycle pipeline on the default target) and untimed (the profiling run
// behind training labels). One iteration runs all of them; ns/dyn_instr
// is the cost per executed machine instruction.
func BenchmarkRun(b *testing.B) {
	var progs []*ir.Program
	for _, w := range workloads.All() {
		progs = append(progs, compileDefault(b, &w))
	}
	for _, bc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"timed", sim.Config{Timed: true, Model: machine.Default().Model}},
		{"untimed", sim.Config{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var dyn int64
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
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
