package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"

	"schedfilter/internal/features"
	"schedfilter/internal/ripper"
)

// Induced is the paper's L/N filter: a Ripper rule set over block
// features choosing between list scheduling ("list") and not scheduling
// ("orig"). Moved here from internal/core with bit-identical decisions
// and cache identity.
type Induced struct {
	// Rules is the filter's rule set. It must not be modified once the
	// policy is in use: its hash is the policy's cache identity (RuleHash,
	// ID), computed once and reused.
	Rules *ripper.RuleSet
	// Label identifies the filter (e.g. "L/N t=20") in reports.
	Label string
	// Target names the machine target the filter's labels were computed
	// under (e.g. "mpc7410"). Features are target-independent, so a
	// filter still evaluates under any machine — Target records which
	// cost model taught it, for mismatch warnings and the cross-target
	// transfer experiment. Empty means unknown (pre-registry model
	// files).
	Target string

	// hash is RuleHash's result for the rule set it was computed from.
	hash atomic.Pointer[ruleHash]
}

type ruleHash struct {
	rules *ripper.RuleSet
	hex   string
}

// NewInduced wraps a rule set as a policy with no target provenance.
func NewInduced(rs *ripper.RuleSet, label string) *Induced {
	return NewInducedFor(rs, label, "")
}

// NewInducedFor wraps a rule set as a policy trained for the named
// machine target.
func NewInducedFor(rs *ripper.RuleSet, label, target string) *Induced {
	if label == "" {
		label = "L/N"
	}
	return &Induced{Rules: rs, Label: label, Target: target}
}

// Name implements Policy.
func (f *Induced) Name() string { return f.Label }

// Decide implements Policy: the same first-covering-rule semantics as
// ripper.RuleSet.Predict, with the covering rule's Laplace-corrected
// training accuracy as the confidence (the default rule's counts when
// nothing covers).
func (f *Induced) Decide(v features.Vector) (bool, float64) {
	x := v.Slice()
	for i := range f.Rules.Rules {
		r := &f.Rules.Rules[i]
		if r.Covers(x) {
			return true, laplace(r.TP, r.FP)
		}
	}
	return false, laplace(f.Rules.DefaultTP, f.Rules.DefaultFP)
}

// Provenance implements Policy.
func (f *Induced) Provenance() Provenance {
	return Provenance{Kind: kindRipper, Target: f.Target, Detail: "rules " + f.RuleHash()}
}

// RuleHash is the induced filter's content identity: a short hex digest
// of the full-precision rule text. Two filters with equal hashes make
// identical decisions on every block; two retrained versions that share
// a label never share a hash unless their rules are the same. Headers
// are excluded, so adding provenance lines to a model file never
// changes its hash. The rule text is formatted and hashed once per rule
// set; later calls return the stored digest.
func (f *Induced) RuleHash() string {
	if h := f.hash.Load(); h != nil && h.rules == f.Rules {
		return h.hex
	}
	sum := sha256.Sum256([]byte(f.Rules.Format()))
	h := &ruleHash{rules: f.Rules, hex: hex.EncodeToString(sum[:8])}
	f.hash.Store(h)
	return h.hex
}
