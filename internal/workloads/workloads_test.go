package workloads

import (
	"testing"

	"schedfilter/internal/core"
	"schedfilter/internal/interp"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sim"
)

// golden holds the expected checksum of each workload. The values were
// produced by the reference interpreter and are locked here so that any
// semantic drift in the front end, JIT, scheduler, or simulator fails
// loudly.
var golden = map[string]int64{
	"compress":  1574873061,
	"jess":      700579,
	"db":        82483207,
	"javac":     10557343,
	"mpegaudio": 54882582,
	"raytrace":  30478,
	"jack":      7669732,
	"linpack":   163198443,
	"power":     40079856,
	"bh":        105112071,
	"voronoi":   253879986,
	"aes":       8387403,
	"scimark":   145498464,
}

func TestWorkloadsCompile(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.Compile(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	w := ByName("compress")
	m, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := interp.Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := interp.Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ret != b.Ret {
		t.Errorf("nondeterministic checksum: %d vs %d", a.Ret, b.Ret)
	}
}

// TestWorkloadsDifferential is the system's core integration test: for
// every workload, the interpreter, the unscheduled compiled code, and the
// fully scheduled compiled code must agree on the checksum and printed
// output.
func TestWorkloadsDifferential(t *testing.T) {
	model := machine.Default().Model
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			mod, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := interp.Run(mod, 0)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			t.Logf("%s: interp ret=%d steps=%d", w.Name, want.Ret, want.Steps)
			if g, ok := golden[w.Name]; ok && want.Ret != g {
				t.Errorf("golden checksum drifted: %d, want %d", want.Ret, g)
			}

			prog, err := jit.Compile(mod, jit.Options{})
			if err != nil {
				t.Fatalf("jit: %v", err)
			}
			ns, err := sim.Run(prog, sim.Config{})
			if err != nil {
				t.Fatalf("sim NS: %v", err)
			}
			if ns.Ret != want.Ret {
				t.Errorf("NS ret = %d, interp says %d", ns.Ret, want.Ret)
			}

			core.Apply(model, prog, policy.Always{}, core.Pass{})
			ls, err := sim.Run(prog, sim.Config{})
			if err != nil {
				t.Fatalf("sim LS: %v", err)
			}
			if ls.Ret != want.Ret {
				t.Errorf("LS ret = %d, interp says %d", ls.Ret, want.Ret)
			}
			t.Logf("%s: machine instrs=%d blocks=%d", w.Name, ns.DynInstrs, prog.NumBlocks())
		})
	}
}
