package online

import (
	"strings"
	"testing"

	"schedfilter/internal/policy"
)

// holdoutSamples builds n samples where list scheduling halves the
// estimated cost: NS = 100 cycles, LS = 50, block length 10.
func holdoutSamples(n int) []*Sample {
	out := make([]*Sample, n)
	for i := range out {
		k := mkKey(0, i)
		out[i] = mkSample(k, 10, 100, 50)
	}
	return out
}

func TestEvalFilterTwoAxes(t *testing.T) {
	hold := holdoutSamples(4)
	hold[0].Seen = 3 // weight one block heavier

	ls := evalFilter(policy.Always{}, hold)
	if ls.Scheduled != 4 || ls.Blocks != 4 {
		t.Fatalf("LS decisions: %+v", ls)
	}
	if want := int64(3*50 + 3*50); ls.EstCycles != want {
		t.Fatalf("LS EstCycles %d, want %d", ls.EstCycles, want)
	}
	if ls.SchedCost != 40 { // 4 blocks × bbLen 10, unweighted
		t.Fatalf("LS SchedCost %d, want 40", ls.SchedCost)
	}

	ns := evalFilter(policy.Never{}, hold)
	if ns.Scheduled != 0 || ns.SchedCost != 0 {
		t.Fatalf("NS decisions: %+v", ns)
	}
	if want := int64(3*100 + 3*100); ns.EstCycles != want {
		t.Fatalf("NS EstCycles %d, want %d", ns.EstCycles, want)
	}
}

func TestGateRejectsEmptyHoldout(t *testing.T) {
	ok, reason := admit(Score{}, Score{})
	if ok || !strings.Contains(reason, "holdout") {
		t.Fatalf("empty holdout admitted: %v %q", ok, reason)
	}
}

func TestGateRejectsCycleRegression(t *testing.T) {
	hold := holdoutSamples(4)
	cand := evalFilter(policy.Never{}, hold) // 400 est cycles
	inc := evalFilter(policy.Always{}, hold) // 200 est cycles
	ok, reason := admit(cand, inc)
	if ok || !strings.Contains(reason, "cycles regress") {
		t.Fatalf("cycle regression admitted: %v %q", ok, reason)
	}
}

func TestGateRejectsSchedCostBlowup(t *testing.T) {
	inc := Score{Blocks: 4, EstCycles: 100, SchedCost: 10}
	limit := int64(float64(inc.SchedCost)*schedCostFactor) + schedCostSlack
	cand := Score{Blocks: 4, EstCycles: 100, SchedCost: limit}
	if ok, reason := admit(cand, inc); !ok {
		t.Fatalf("sched cost at the limit %d rejected: %q", limit, reason)
	}
	cand.SchedCost = limit + 1
	ok, reason := admit(cand, inc)
	if ok || !strings.Contains(reason, "cost regresses") {
		t.Fatalf("sched-cost blowup admitted: %v %q", ok, reason)
	}
}

func TestGateAdmitsImprovementOverNS(t *testing.T) {
	// An NS incumbent has zero scheduling cost; the additive slack must
	// still let a faster candidate start scheduling.
	hold := holdoutSamples(4)
	cand := evalFilter(policy.Always{}, hold)
	inc := evalFilter(policy.Never{}, hold)
	ok, reason := admit(cand, inc)
	if !ok {
		t.Fatalf("improving candidate rejected: %q", reason)
	}
}
