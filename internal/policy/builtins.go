package policy

import (
	"fmt"
	"math/bits"

	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Always is the LS protocol: schedule every block.
type Always struct{}

// Name implements Policy.
func (Always) Name() string { return "LS" }

// Decide implements Policy.
func (Always) Decide(features.Vector) (bool, float64) { return true, 1 }

// Provenance implements Policy.
func (Always) Provenance() Provenance {
	return Provenance{Kind: kindAlways, Detail: "schedule every block"}
}

// Never is the NS protocol: schedule nothing.
type Never struct{}

// Name implements Policy.
func (Never) Name() string { return "NS" }

// Decide implements Policy.
func (Never) Decide(features.Vector) (bool, float64) { return false, 1 }

// Provenance implements Policy.
func (Never) Provenance() Provenance {
	return Provenance{Kind: kindNever, Detail: "schedule no block"}
}

// SizeThreshold is the obvious hand-written baseline: schedule blocks of
// at least MinLen instructions. The paper had no pre-existing hand-coded
// heuristic; this one exists for ablation comparisons against the
// induced filter.
type SizeThreshold struct {
	MinLen int
}

// Name implements Policy.
func (f SizeThreshold) Name() string { return fmt.Sprintf("size>=%d", f.MinLen) }

// Decide implements Policy. Confidence grows with the block's distance
// from the threshold: a block right at the boundary is a coin flip to
// this heuristic, a block far from it is a sure call.
func (f SizeThreshold) Decide(v features.Vector) (bool, float64) {
	d := v[0] - float64(f.MinLen)
	if d < 0 {
		d = -d
	}
	return v.BBLen() >= f.MinLen, d / (d + 1)
}

// Provenance implements Policy.
func (f SizeThreshold) Provenance() Provenance {
	return Provenance{Kind: kindSize, Detail: fmt.Sprintf("min block length %d", f.MinLen)}
}

// costThreshold schedules blocks whose estimated unscheduled execution
// cost under a machine target meets a cycle threshold — the "is there
// enough work here to be worth it" heuristic, phrased in the target's
// own latencies rather than raw instruction count.
//
// A Policy sees only the feature vector, not the instructions, so the
// estimate is necessarily crude: the per-category mean latencies of the
// target model are precomputed at construction, and a block's cost is
// approximated as bbLen scaled by the latency excess its category mix
// implies, divided by the issue width. That makes a float-division-heavy
// block "cost" far more than an ALU block of the same length, which is
// the distinction a pure size threshold cannot draw.
type costThreshold struct {
	// MinCycles is the estimated-cycle threshold.
	MinCycles int
	// Target names the machine target the latency weights came from.
	Target string

	weights    [ir.NumCategories]float64
	issueWidth float64
}

// newCostThreshold builds a cost policy against the named machine
// target (ByName semantics; empty means the default target).
func newCostThreshold(target string, minCycles int) (*costThreshold, error) {
	if target == "" {
		target = machine.DefaultTargetName
	}
	tgt, err := machine.ByName(target)
	if err != nil {
		return nil, err
	}
	c := &costThreshold{
		MinCycles:  minCycles,
		Target:     tgt.Name,
		issueWidth: float64(tgt.Model.IssueWidth),
	}
	if c.issueWidth < 1 {
		c.issueWidth = 1
	}
	// Mean result latency per category over the opcodes carrying that
	// category bit; categories overlap, so a divide contributes to both
	// "integer" and "pei".
	var sum [ir.NumCategories]float64
	var n [ir.NumCategories]int
	for op := 0; op < ir.NumOps; op++ {
		lat := float64(tgt.Model.Timing[op].Latency)
		if lat <= 0 {
			continue
		}
		for cats := uint(ir.Op(op).Categories()); cats != 0; cats &= cats - 1 {
			i := bits.TrailingZeros(cats)
			sum[i] += lat
			n[i]++
		}
	}
	for i := range c.weights {
		c.weights[i] = 1
		if n[i] > 0 {
			c.weights[i] = sum[i] / float64(n[i])
		}
	}
	return c, nil
}

// EstCycles is the policy's cycle estimate for a feature vector.
func (f *costThreshold) EstCycles(v features.Vector) float64 {
	excess := 0.0
	for i, w := range f.weights {
		excess += v[i+1] * (w - 1)
	}
	return v[0] * (1 + excess) / f.issueWidth
}

// Name implements Policy.
func (f *costThreshold) Name() string { return fmt.Sprintf("cost>=%d", f.MinCycles) }

// PolicyID distinguishes cost policies parameterized by different
// targets: their weights — and so their decisions — differ.
func (f *costThreshold) PolicyID() string {
	return fmt.Sprintf("cost>=%d@%s", f.MinCycles, f.Target)
}

// Decide implements Policy. Confidence grows with the estimate's
// distance from the threshold, like SizeThreshold.
func (f *costThreshold) Decide(v features.Vector) (bool, float64) {
	est := f.EstCycles(v)
	d := est - float64(f.MinCycles)
	if d < 0 {
		d = -d
	}
	return est >= float64(f.MinCycles), d / (d + 1)
}

// Provenance implements Policy.
func (f *costThreshold) Provenance() Provenance {
	return Provenance{
		Kind:   kindCost,
		Target: f.Target,
		Detail: fmt.Sprintf("estimated cost ≥ %d cycles under %s latencies", f.MinCycles, f.Target),
	}
}
