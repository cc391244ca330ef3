// Package policy makes the scheduling decision procedure itself a
// pluggable component. The paper's contribution is one instance of a
// decision heuristic — a Ripper-induced binary filter over the Table-1
// block features — but nothing about the surrounding system (scheduler,
// trainer, compile server, online retrainer, cluster) actually depends
// on *how* the decision is made, only that some procedure maps a feature
// vector to schedule/don't. This package names that procedure Policy,
// gives it an identity usable as a cache key, and lists the known
// decision kinds in a fixed table mirroring internal/machine's target
// table, so new heuristics (cost thresholds, portfolios, future learned
// models) drop in beside the induced filter instead of replacing it.
//
// The induced Ripper filter lives here too (moved from internal/core)
// and behaves bit-identically: Decide evaluates the same
// first-covering-rule semantics as ripper.RuleSet.Predict, and ID
// reproduces the historical FilterID format exactly, so every
// pre-existing cache fingerprint is preserved. Schedules is the one
// boolean form of a decision.
package policy

import "schedfilter/internal/features"

// Policy decides whether a block (summarized by its feature vector)
// should be list-scheduled, and how confident the decision is.
type Policy interface {
	// Name identifies the policy in reports (e.g. "LS", "L/N t=20",
	// "cost>=12").
	Name() string
	// Decide reports whether the block is predicted to benefit from
	// list scheduling, plus a confidence in [0,1]. Confidence is only
	// required to be comparable across calls to the same policy — the
	// portfolio combinator uses it to arbitrate between members.
	Decide(v features.Vector) (schedule bool, confidence float64)
	// Provenance reports where the policy came from.
	Provenance() Provenance
}

// Provenance records where a policy came from: its kind, the
// machine target that parameterized or taught it (empty for
// target-independent policies), and a human-readable detail line.
type Provenance struct {
	// Kind is the kind name ("always", "never", "size",
	// "cost", "ripper", "portfolio").
	Kind string
	// Target names the machine target the policy was trained for or
	// parameterized by; empty means target-independent.
	Target string
	// Detail is a free-form human-readable summary (rule hash,
	// threshold, member list).
	Detail string
}

// identified is implemented by policies whose cache identity is richer
// than their display name.
type identified interface {
	PolicyID() string
}

// ID returns a stable content identity for any policy, for use in cache
// fingerprints: fixed protocols are identified by name (their behaviour
// IS their name), induced filters by label plus rule hash — so a
// hot-swapped policy version with the same label as its predecessor
// still fingerprints differently, and cached per-program decisions can
// never be served stale across a swap. For the historical filter types
// the output is byte-identical to the pre-policy FilterID.
func ID(p Policy) string {
	if ind, ok := p.(*Induced); ok {
		return ind.Label + "@" + ind.RuleHash()
	}
	if pi, ok := p.(identified); ok {
		return pi.PolicyID()
	}
	return p.Name()
}

// Schedules is the boolean projection of Decide, for call sites that
// don't need the confidence.
func Schedules(p Policy, v features.Vector) bool {
	s, _ := p.Decide(v)
	return s
}

// laplace is the Laplace-corrected accuracy (tp+1)/(tp+fp+2) — the
// standard rule-confidence estimate, well-defined even with zero
// counts (it degrades to an uninformative 0.5).
func laplace(tp, fp int) float64 {
	return float64(tp+1) / float64(tp+fp+2)
}
