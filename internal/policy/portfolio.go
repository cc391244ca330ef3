package policy

import (
	"fmt"
	"strings"

	"schedfilter/internal/features"
)

// portfolio arbitrates between member policies by confidence: every
// member decides, and the most confident decision wins (ties break to
// the earliest member, so ordering is part of the portfolio's
// identity). This is the algorithm-portfolio shape — run several
// heuristics, act on the one that is surest — collapsed to the
// degenerate-but-useful per-block form.
type portfolio struct {
	Members []Policy
}

// newPortfolio builds a portfolio; it needs at least one member.
func newPortfolio(members ...Policy) (*portfolio, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("policy: portfolio needs at least one member")
	}
	return &portfolio{Members: members}, nil
}

// Name implements Policy.
func (f *portfolio) Name() string {
	names := make([]string, len(f.Members))
	for i, m := range f.Members {
		names[i] = m.Name()
	}
	return "portfolio(" + strings.Join(names, ",") + ")"
}

// PolicyID combines the members' identities, so two portfolios over
// different filter versions never share a cache fingerprint.
func (f *portfolio) PolicyID() string {
	ids := make([]string, len(f.Members))
	for i, m := range f.Members {
		ids[i] = ID(m)
	}
	return "portfolio[" + strings.Join(ids, "+") + "]"
}

// Decide implements Policy: the decision of the highest-confidence
// member, with that member's confidence.
func (f *portfolio) Decide(v features.Vector) (bool, float64) {
	bestSched, bestConf := f.Members[0].Decide(v)
	for i := 1; i < len(f.Members); i++ {
		s, c := f.Members[i].Decide(v)
		if c > bestConf {
			bestSched, bestConf = s, c
		}
	}
	return bestSched, bestConf
}

// Provenance implements Policy. Target is the first member target seen,
// as the portfolio itself is target-agnostic.
func (f *portfolio) Provenance() Provenance {
	target := ""
	kinds := make([]string, len(f.Members))
	for i, m := range f.Members {
		pv := m.Provenance()
		kinds[i] = pv.Kind
		if target == "" {
			target = pv.Target
		}
	}
	return Provenance{
		Kind:   kindPortfolio,
		Target: target,
		Detail: "members: " + strings.Join(kinds, ","),
	}
}
