// Package workloads bundles the benchmark programs of the reproduction:
// seven Jolt programs standing in for SPECjvm98 (Table 2 of the paper) and
// six standing in for the paper's second suite of programs that actually
// benefit from instruction scheduling (Table 7). Each stand-in reproduces
// its namesake's computational character — instruction mix, control
// structure, and data access pattern — rather than its exact function.
//
// Every program is deterministic and returns a checksum from main; the
// checksums are golden-tested against both the bytecode interpreter and
// the compiled machine code under every scheduling protocol.
package workloads

import (
	"fmt"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/jolt"
)

// Suite identifies which benchmark suite a workload belongs to.
type Suite int

const (
	// SuiteJVM98 is the SPECjvm98 stand-in suite (paper Table 2).
	SuiteJVM98 Suite = 1
	// SuiteFP is the floating-point "benefits from scheduling" suite
	// (paper Table 7).
	SuiteFP Suite = 2
)

// Workload is one benchmark program.
type Workload struct {
	// Name matches the paper's benchmark name.
	Name string
	// Description is the Table 2/Table 7 characterization.
	Description string
	Suite       Suite
	// Source is the complete Jolt program (prelude included).
	Source string
}

// Compile compiles the workload to bytecode; jit.Compile and interp.Run
// verify it.
func (w *Workload) Compile() (*bytecode.Module, error) {
	return w.CompileWithOptions(jolt.Options{})
}

// CompileWithOptions compiles the workload with front-end passes (e.g.
// loop unrolling) enabled.
func (w *Workload) CompileWithOptions(opt jolt.Options) (*bytecode.Module, error) {
	m, err := jolt.Compile(w.Source, opt)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return m, nil
}

// prelude is shared utility code: a deterministic LCG and float helpers.
// Names are prefixed to avoid collisions with workload code.
const prelude = `
var wlSeed int = 12345;
func wlSrand(s int) { wlSeed = s; }
func wlRand() int {
  wlSeed = (wlSeed * 1103515245 + 12345) & 2147483647;
  return wlSeed;
}
func wlRandN(n int) int { return wlRand() % n; }
func wlFabs(x float) float { if (x < 0.0) { return -x; } return x; }
func wlSqrt(x float) float {
  if (x <= 0.0) { return 0.0; }
  var g float = x;
  if (g > 1.0) { g = x * 0.5; }
  for (var i int = 0; i < 24; i = i + 1) {
    g = 0.5 * (g + x / g);
  }
  return g;
}
func wlSin(x float) float {
  // Range-reduce to [-pi, pi] then a 7th-order Taylor approximation:
  // plenty for checksum-grade numerics.
  var pi float = 3.14159265358979;
  while (x > pi) { x = x - 2.0 * pi; }
  while (x < -pi) { x = x + 2.0 * pi; }
  var x2 float = x * x;
  return x * (1.0 - x2/6.0 * (1.0 - x2/20.0 * (1.0 - x2/42.0)));
}
func wlCos(x float) float {
  return wlSin(x + 1.5707963267949);
}
`

// All returns every workload, suite 1 first.
func All() []Workload {
	out := append([]Workload(nil), Suite1()...)
	return append(out, Suite2()...)
}

// ByName returns the named workload or nil.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			w := w
			return &w
		}
	}
	return nil
}

// Suite1 returns the SPECjvm98 stand-ins in the paper's order.
func Suite1() []Workload {
	return []Workload{
		{Name: "compress", Suite: SuiteJVM98,
			Description: "LZW-style compression of synthetic text (stand-in for 129.compress)",
			Source:      prelude + srcCompress},
		{Name: "jess", Suite: SuiteJVM98,
			Description: "forward-chaining rule engine over integer facts (stand-in for the CLIPS-based expert system)",
			Source:      prelude + srcJess},
		{Name: "db", Suite: SuiteJVM98,
			Description: "in-memory database: inserts, lookups, updates, shellsort (stand-in for db)",
			Source:      prelude + srcDB},
		{Name: "javac", Suite: SuiteJVM98,
			Description: "recursive-descent expression compiler and evaluator (stand-in for the JDK 1.0.2 javac)",
			Source:      prelude + srcJavac},
		{Name: "mpegaudio", Suite: SuiteJVM98,
			Description: "fixed-point subband filter bank over synthetic PCM (stand-in for the MPEG-3 decoder)",
			Source:      prelude + srcMpeg},
		{Name: "raytrace", Suite: SuiteJVM98,
			Description: "sphere-scene raytracer with quadratic intersection (stand-in for raytrace)",
			Source:      prelude + srcRaytrace},
		{Name: "jack", Suite: SuiteJVM98,
			Description: "table-driven lexer/parser generator pass over synthetic grammars (stand-in for jack)",
			Source:      prelude + srcJack},
	}
}

// Suite2 returns the FP-heavy suite (paper Table 7).
func Suite2() []Workload {
	return []Workload{
		{Name: "linpack", Suite: SuiteFP,
			Description: "LU decomposition with partial pivoting and triangular solve",
			Source:      prelude + srcLinpack},
		{Name: "power", Suite: SuiteFP,
			Description: "power pricing system optimization: Gauss-Seidel sweeps over a network grid",
			Source:      prelude + srcPower},
		{Name: "bh", Suite: SuiteFP,
			Description: "Barnes-Hut style N-body force computation with softened gravity",
			Source:      prelude + srcBH},
		{Name: "voronoi", Suite: SuiteFP,
			Description: "nearest-site Voronoi region assignment over a point grid",
			Source:      prelude + srcVoronoi},
		{Name: "aes", Suite: SuiteFP,
			Description: "AES-style substitution-permutation cipher over NIST-style test vectors",
			Source:      prelude + srcAES},
		{Name: "scimark", Suite: SuiteFP,
			Description: "scientific kernels: FFT butterfly pass, SOR relaxation, Monte Carlo, dense matmul",
			Source:      prelude + srcScimark},
	}
}
