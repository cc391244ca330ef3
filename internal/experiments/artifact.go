package experiments

import "runtime"

// Artifact is the one shape of every checked-in BENCH_*.json file:
//
//	{"deterministic": …, "timing": …}
//
// Deterministic holds what reproduces byte for byte on any host and at
// any -j; `schedexp -check` regenerates it and compares it with the
// checked-in file. Timing holds the wall-clock and race-dependent
// numbers together with the host that measured them, is never compared,
// and is omitted when an experiment has none. There is no commit field:
// a file's git history says which commit produced it.
type Artifact struct {
	Deterministic any `json:"deterministic"`
	Timing        any `json:"timing,omitempty"`
}

// host is the measuring host, embedded at the top of a timing section.
type host struct {
	Go         string `json:"go"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisHost() host {
	return host{Go: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// Artifact returns the matrix as an artifact; it has no timing section.
func (r *TargetMatrixResult) Artifact() Artifact { return Artifact{Deterministic: r} }

// Artifact returns the matrix as an artifact; it has no timing section.
func (r *PolicyMatrixResult) Artifact() Artifact { return Artifact{Deterministic: r} }

// Artifact returns the lifecycle as an artifact; it has no timing
// section.
func (o *OnlineResult) Artifact() Artifact { return Artifact{Deterministic: o} }
