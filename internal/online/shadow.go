package online

import (
	"fmt"

	"schedfilter/internal/policy"
)

// Score is one filter's shadow evaluation over a holdout slice, along
// the paper's two axes: how fast the application is predicted to run
// under the filter's decisions, and how much scheduling work those
// decisions buy.
type Score struct {
	// Filter is the scored filter's name.
	Filter string `json:"filter"`
	// EstCycles is the estimated application time: Σ over holdout
	// samples of seen-weight · (CostLS if the filter schedules the
	// block, else CostNS) — the paper's SIM(P, π) with live sighting
	// counts standing in for profiled execution counts.
	EstCycles int64 `json:"est_cycles"`
	// SchedCost is the scheduling-cost proxy: Σ block length over the
	// blocks the filter sends to the scheduler, unweighted — each unique
	// block is scheduled once at compile time no matter how often it
	// runs. List scheduling is superlinear in block length, but the
	// linear proxy orders candidates identically in practice and stays
	// deterministic.
	SchedCost int64 `json:"sched_cost"`
	// Scheduled and Blocks count the filter's LS decisions and the
	// holdout size.
	Scheduled int `json:"scheduled"`
	Blocks    int `json:"blocks"`
}

// EvalFilter scores f over the holdout slice.
func EvalFilter(f policy.Policy, hold []*Sample) Score {
	sc := Score{Filter: f.Name(), Blocks: len(hold)}
	for _, s := range hold {
		w := s.Seen
		if w <= 0 {
			w = 1
		}
		if policy.Schedules(f, s.Feat) {
			sc.Scheduled++
			sc.EstCycles += w * int64(s.CostLS)
			sc.SchedCost += int64(s.Feat.BBLen())
		} else {
			sc.EstCycles += w * int64(s.CostNS)
		}
	}
	return sc
}

// The promotion gate a candidate must pass against the incumbent.
const (
	// cycleSlack is the fractional estimated-app-cycle regression the
	// candidate is allowed: it is rejected if its EstCycles exceed the
	// incumbent's by more than this fraction.
	cycleSlack = 0.005
	// schedCostFactor bounds the candidate's scheduling-cost growth:
	// candidate.SchedCost must be ≤ incumbent.SchedCost·schedCostFactor
	// + schedCostSlack.
	schedCostFactor = 2.0
	// schedCostSlack is the additive scheduling-cost allowance, so a
	// candidate can still start scheduling under an incumbent that
	// schedules nothing (NS has zero scheduling cost; any factor of zero
	// is zero).
	schedCostSlack = 4096
)

// admit decides whether the candidate may replace the incumbent, and
// explains the verdict. An empty holdout always rejects: a promotion no
// evidence supports is a regression waiting to happen.
func admit(cand, inc Score) (bool, string) {
	if cand.Blocks == 0 {
		return false, "no holdout samples to shadow-evaluate on"
	}
	limit := float64(inc.EstCycles) * (1 + cycleSlack)
	if float64(cand.EstCycles) > limit {
		return false, fmt.Sprintf(
			"estimated app cycles regress: candidate %d vs incumbent %d (limit %.0f)",
			cand.EstCycles, inc.EstCycles, limit)
	}
	costLimit := int64(float64(inc.SchedCost)*schedCostFactor) + schedCostSlack
	if cand.SchedCost > costLimit {
		return false, fmt.Sprintf(
			"scheduling cost regresses: candidate %d vs incumbent %d (limit %d)",
			cand.SchedCost, inc.SchedCost, costLimit)
	}
	return true, "promoted"
}
