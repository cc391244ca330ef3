package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/features"
	"schedfilter/internal/par"
	"schedfilter/internal/policy"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// Ablation studies beyond the paper's tables: how does the induced filter
// compare against (a) the obvious hand-written block-size thresholds the
// paper had no precedent for, and (b) an oracle that schedules exactly the
// blocks the estimator says benefit? The oracle bounds what any filter
// over these labels could achieve.

// AblationRow is one filter's aggregate result over suite 1.
type AblationRow struct {
	Name string
	// ErrPct is the geometric-mean classification error at t=0.
	ErrPct float64
	// SchedFrac is the geometric-mean scheduling-time fraction vs LS;
	// it is wall-clock, so it stays out of the JSON encoding.
	SchedFrac float64 `json:"-"`
	// AppRel is the geometric-mean app running time vs NS.
	AppRel float64
	// BenefitPct is the share of LS's app-time improvement retained.
	BenefitPct float64
}

// AblationResult compares filter families.
type AblationResult struct {
	Rows  []AblationRow
	LSRel float64 // LS app time vs NS (geomean), the benefit ceiling
}

// oracleFilter replays the true per-block labels of one benchmark in
// program traversal order. It exists only for the ablation: it is not a
// realizable filter (it looks at the answer), but it bounds achievable
// effectiveness.
type oracleFilter struct {
	decisions []bool
	next      int
}

func (o *oracleFilter) Name() string { return "oracle" }

func (o *oracleFilter) Decide(features.Vector) (bool, float64) {
	d := o.decisions[o.next%len(o.decisions)]
	o.next++
	return d, 1
}

func (o *oracleFilter) Provenance() policy.Provenance {
	return policy.Provenance{Kind: "oracle", Detail: "replays true labels; not realizable"}
}

func newOracle(bd *training.BenchData) *oracleFilter {
	o := &oracleFilter{decisions: make([]bool, len(bd.Records))}
	for i := range bd.Records {
		o.decisions[i] = training.LabelOf(&bd.Records[i], 0) == +1
	}
	return o
}

// Ablation runs the comparison at t=0 over suite 1.
func (r *Runner) Ablation() (*AblationResult, error) {
	data, err := r.Suite1()
	if err != nil {
		return nil, err
	}

	// Prefetch the deterministic inputs in parallel: the induced t=0
	// filters and the baseline app times. The wall-clock SchedTime
	// measurements below stay serial so concurrent passes cannot distort
	// each other's timings.
	nsCycles := make([]int64, len(data))
	lsCycles := make([]int64, len(data))
	lsTimes := make([]float64, len(data))
	lsRel := make([]float64, len(data))
	if err := par.DoErr(r.cfg.Jobs, len(data), func(i int) error {
		bd := data[i]
		var err error
		if _, err = r.Filter(workloads.SuiteJVM98, bd.Name, 0); err != nil {
			return err
		}
		if nsCycles[i], err = r.AppTime(bd, policy.Never{}); err != nil {
			return err
		}
		if lsCycles[i], err = r.AppTime(bd, policy.Always{}); err != nil {
			return err
		}
		lsRel[i] = float64(lsCycles[i]) / float64(nsCycles[i])
		return nil
	}); err != nil {
		return nil, err
	}
	for i, bd := range data {
		t, _ := r.SchedTime(bd, policy.Always{})
		lsTimes[i] = float64(t)
	}
	res := &AblationResult{LSRel: geomean(lsRel)}

	type candidate struct {
		name string
		mk   func(bd *training.BenchData) policy.Policy
	}
	cands := []candidate{
		{"L/N induced (t=0)", func(bd *training.BenchData) policy.Policy {
			f, _ := r.Filter(workloads.SuiteJVM98, bd.Name, 0)
			return f
		}},
		{"size >= 5", func(*training.BenchData) policy.Policy { return policy.SizeThreshold{MinLen: 5} }},
		{"size >= 10", func(*training.BenchData) policy.Policy { return policy.SizeThreshold{MinLen: 10} }},
		{"size >= 20", func(*training.BenchData) policy.Policy { return policy.SizeThreshold{MinLen: 20} }},
		{"oracle labels", func(bd *training.BenchData) policy.Policy { return newOracle(bd) }},
	}

	for _, c := range cands {
		var errs, fracs, rels []float64
		for i, bd := range data {
			f := c.mk(bd)
			errs = append(errs, 100*training.ErrorRate(resettable(f, bd), bd, 0))
			ft, _ := r.SchedTime(bd, resettable(f, bd))
			fracs = append(fracs, float64(ft)/lsTimes[i])
			cycles, err := r.AppTime(bd, resettable(f, bd))
			if err != nil {
				return nil, err
			}
			rels = append(rels, float64(cycles)/float64(nsCycles[i]))
		}
		row := AblationRow{
			Name:      c.name,
			ErrPct:    geomean(errs),
			SchedFrac: geomean(fracs),
			AppRel:    geomean(rels),
		}
		if res.LSRel < 1 {
			row.BenefitPct = 100 * (1 - row.AppRel) / (1 - res.LSRel)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// resettable returns a fresh oracle (stateful) or the filter unchanged.
func resettable(f policy.Policy, bd *training.BenchData) policy.Policy {
	if _, ok := f.(*oracleFilter); ok {
		return newOracle(bd)
	}
	return f
}

// Render formats the ablation as a table.
func (a *AblationResult) Render() string {
	var b strings.Builder
	header(&b, "Ablation: induced filter vs hand baselines vs oracle (suite 1, t=0, geomeans)")
	fmt.Fprintf(&b, "LS app time vs NS: %.4f (the benefit ceiling)\n\n", a.LSRel)
	fmt.Fprintf(&b, "%-20s %10s %12s %10s %10s\n", "filter", "err%", "sched frac", "app rel", "benefit%")
	for _, row := range a.Rows {
		fmt.Fprintf(&b, "%-20s %10.2f %12.3f %10.4f %10.1f\n",
			row.Name, row.ErrPct, row.SchedFrac, row.AppRel, row.BenefitPct)
	}
	return b.String()
}
