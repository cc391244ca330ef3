package machine

import (
	"fmt"
	"slices"
	"sort"

	"schedfilter/internal/ir"
)

// Target binds a stable, lowercase name to an immutable machine model.
// Targets are the unit of machine identity everywhere above this package:
// the scheduler and simulator take a target's model, induced filters
// record the target they were trained for, the compile server keys its
// per-machine caches by target name, and the cross-target experiment
// trains on one target and evaluates on another.
//
// A target's Model must never be mutated; code that wants a
// variant (ablations, custom latency tables) must Clone it first.
type Target struct {
	// Name is the lookup key (e.g. "mpc7410"); lowercase by convention.
	Name string
	// Description is a one-line summary for listings and -h output.
	Description string
	// Model is the shared, immutable timing model.
	Model *Model
}

// DefaultTargetName is the target the whole reproduction defaults to:
// the paper's MPC7410 simplified machine simulator.
const DefaultTargetName = "mpc7410"

// targets is the fixed table of built-in targets, default first. Nothing
// writes it after package initialization, so lookups take no lock.
var targets = []*Target{
	{
		Name:        DefaultTargetName,
		Description: "MPC7410-like dual-issue PowerPC (the paper's simplified machine simulator)",
		Model:       newMPC7410(),
	},
	{
		Name:        "scalar603",
		Description: "PowerPC-603-era scalar core: single issue, slower loads, unpipelined FPU",
		Model:       newScalar603(),
	},
	{
		Name:        "scalar1",
		Description: "single-issue in-order core with MPC7410 latencies (issue-width ablation)",
		Model:       newScalar1(),
	},
	{
		Name:        "wide4",
		Description: "4-wide superscalar variant of the MPC7410 model",
		Model:       newWide4(),
	},
	{
		Name:        "test-narrow",
		Description: "scaled-down single-issue model with clamped latencies (for tests)",
		Model:       newTestNarrow(),
	},
}

// A broken built-in model is caught at start-up, not mid-schedule.
func init() {
	for _, t := range targets {
		if err := t.Model.Validate(); err != nil {
			panic(fmt.Errorf("machine: target %q: %w", t.Name, err))
		}
	}
}

// ByName returns the named target, or an error naming the known targets.
func ByName(name string) (*Target, error) {
	for _, t := range targets {
		if t.Name == name {
			return t, nil
		}
	}
	known := make([]string, 0, len(targets))
	for _, t := range targets {
		known = append(known, t.Name)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("machine: unknown target %q (known: %v)", name, known)
}

// MustByName is ByName, panicking on unknown names; for tests and init
// paths where the name is a compile-time constant.
func MustByName(name string) *Target {
	t, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Default returns the default target (DefaultTargetName).
func Default() *Target { return targets[0] }

// All returns every target in table order (the default target first, then
// the built-in alternates). The returned slice is fresh; the Targets it
// points at are the table's own.
func All() []*Target { return slices.Clone(targets) }

// TargetNameFor maps a model back to the name of the target it belongs
// to, matching by model identity first and display name second (the
// display name is what fingerprints already hash). Custom
// models map to their own display name, so labels stay meaningful for
// ablation variants.
func TargetNameFor(m *Model) string {
	if m == nil {
		return ""
	}
	for _, t := range targets {
		if t.Model == m {
			return t.Name
		}
	}
	for _, t := range targets {
		if t.Model.Name == m.Name {
			return t.Name
		}
	}
	return m.Name
}

// Validate checks that the model is usable by the scheduler and both
// simulators: issue widths at least one (the branch slot included — the
// issue logic assumes branches always have somewhere to go), every
// opcode's latency at least one cycle, and every opcode mapped to at
// least one functional unit (NOP, which executes nowhere, excepted).
// Package initialization runs it over every built-in target.
func (m *Model) Validate() error {
	if m.IssueWidth < 1 {
		return fmt.Errorf("model %s: issue width %d < 1", m.Name, m.IssueWidth)
	}
	if m.BranchPerCycle < 1 {
		return fmt.Errorf("model %s: branch issue width %d < 1", m.Name, m.BranchPerCycle)
	}
	if m.TakenBranchBubble < 0 {
		return fmt.Errorf("model %s: negative taken-branch bubble %d", m.Name, m.TakenBranchBubble)
	}
	for op := ir.Op(1); int(op) < ir.NumOps; op++ {
		if m.Timing[op].Latency < 1 {
			return fmt.Errorf("model %s: %v latency %d < 1", m.Name, op, m.Timing[op].Latency)
		}
		if op != ir.NOP && len(m.UnitsFor(op)) == 0 {
			return fmt.Errorf("model %s: %v has no functional unit", m.Name, op)
		}
	}
	return nil
}

// Clone returns a deep, independently mutable copy of the model. Use it
// to derive ablation or experiment variants from a built-in target
// without touching the shared instance.
func (m *Model) Clone() *Model {
	cp := *m
	return &cp
}

// newScalar1 returns a strictly single-issue in-order core with the
// MPC7410 latency table: one non-branch instruction per cycle plus the
// branch slot, and a deeper taken-branch penalty. It isolates the effect
// of issue width on the should-we-schedule question — unlike Scalar603 it
// changes no latencies, so differences against mpc7410 come from issue
// bandwidth alone.
func newScalar1() *Model {
	m := newMPC7410()
	m.Name = "Scalar1"
	m.IssueWidth = 1
	m.BranchPerCycle = 1
	m.TakenBranchBubble = 2
	return m
}

// newWide4 returns a 4-wide superscalar variant of the MPC7410 model:
// four non-branch issues per cycle. Wider issue hides more of a bad
// static order on its own, so scheduling should buy less — the transfer
// matrix quantifies whether a filter trained on the narrow machine still
// makes the right calls here.
func newWide4() *Model {
	m := newMPC7410()
	m.Name = "Wide4"
	m.IssueWidth = 4
	m.BranchPerCycle = 1
	m.TakenBranchBubble = 1
	return m
}

// newTestNarrow returns the scaled-down model the test suites share: a
// single-issue machine with every latency clamped to at most three
// cycles, so unit tests that only need "a different, narrower machine"
// get one from the target table instead of hand-editing timing tables.
func newTestNarrow() *Model {
	m := newMPC7410()
	m.Name = "TestNarrow"
	m.IssueWidth = 1
	m.BranchPerCycle = 1
	m.TakenBranchBubble = 1
	for op := range m.Timing {
		if m.Timing[op].Latency > 3 {
			m.Timing[op].Latency = 3
		}
	}
	return m
}
