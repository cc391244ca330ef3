package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// Policy × target matrix: the paper evaluates exactly one decision
// procedure (the induced Ripper filter) on exactly one machine. With the
// decision procedure now a first-class Policy, the natural completion of
// the evaluation is the full grid — every registered policy shape
// against every matrix machine, scored on both sides of the paper's
// trade: what the decisions buy (predicted application cycles vs NS)
// and what they spend (scheduling effort vs LS). A policy only earns its
// keep when it sits below LS on effort without drifting above it on
// cycles.

// defaultMatrixPolicies are the policy specs the matrix covers when the
// caller does not choose: the trained Ripper filter, both fixed
// protocols' interesting halves (LS is the Ratio bound, NS the Effort
// bound), a size threshold, a target-parameterized cost threshold, and
// the portfolio of the two thresholds. "ripper" is resolved specially —
// it is trained per target at the matrix threshold rather than parsed
// from a spec.
var defaultMatrixPolicies = []string{
	"ripper",
	"always",
	"size:5",
	"cost:10",
	"portfolio:size:5+cost:10",
}

// PolicyCell is one (policy, target) cell of the matrix.
type PolicyCell struct {
	// Name is the resolved policy's display name under this target and
	// ID its cache identity (cost policies embed the target; the ripper
	// row embeds the trained rule hash).
	Name string `json:"name"`
	ID   string `json:"id"`
	// Ratio is 100 · SIM(policy) / SIM(NS) under the target, geomeaned
	// over the corpus. Lower is better; 100 means the decisions bought
	// nothing.
	Ratio float64 `json:"ratio"`
	// EffortVsLS is 100 · effort(policy) / effort(LS), where effort is
	// the quadratic list-scheduling proxy Σ bbLen² over the blocks the
	// policy sends to the scheduler, summed over the corpus. LS is 100
	// by construction, NS is 0.
	EffortVsLS float64 `json:"effort_vs_ls"`
	// LSDecisions counts blocks sent to the scheduler across the corpus.
	LSDecisions int `json:"ls_decisions"`
}

// PolicyMatrixResult is the policy × target grid, written to
// BENCH_policies.json by `schedexp -exp policies -json`.
type PolicyMatrixResult struct {
	// Targets names the machines (columns).
	Targets []string `json:"targets"`
	// Policies names the policy specs (rows), "ripper" meaning the
	// filter trained on that column's own data.
	Policies []string `json:"policies"`
	// Threshold is the labelling threshold the ripper row is induced at.
	Threshold int `json:"threshold"`
	// Cells[p][t] scores Policies[p] under Targets[t].
	Cells [][]PolicyCell `json:"cells"`
}

// CrossPolicies builds the policy × target matrix over the full corpus
// (both workload suites) for the named registered targets (nil selects
// defaultMatrixTargets) and policy specs (nil selects
// defaultMatrixPolicies), inducing the "ripper" row's filter per target
// at labelling threshold t (<= 0 selects targetMatrixThreshold).
func CrossPolicies(cfg Config, targetNames, policySpecs []string, t int) (*PolicyMatrixResult, error) {
	if len(targetNames) == 0 {
		targetNames = defaultMatrixTargets
	}
	if len(policySpecs) == 0 {
		policySpecs = defaultMatrixPolicies
	}
	if t <= 0 {
		t = targetMatrixThreshold
	}
	cfg = withConfigDefaults(cfg)

	corpus := append(workloads.Suite1(), workloads.Suite2()...)
	type perTarget struct {
		name    string
		data    []*training.BenchData
		induced *policy.Induced
	}
	cols := make([]*perTarget, len(targetNames))
	for i, name := range targetNames {
		tgt, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		data, err := training.CollectAllJobs(corpus, tgt.Model, cfg.CompileOpts, cfg.Jobs)
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", name, err)
		}
		cols[i] = &perTarget{
			name:    tgt.Name,
			data:    data,
			induced: training.TrainFilter(data, t, cfg.RipperOpts, nil),
		}
	}

	res := &PolicyMatrixResult{
		Targets:   append([]string(nil), targetNames...),
		Policies:  append([]string(nil), policySpecs...),
		Threshold: t,
	}
	for _, spec := range policySpecs {
		row := make([]PolicyCell, len(cols))
		for ti, col := range cols {
			var f policy.Policy
			if spec == "ripper" {
				f = col.induced
			} else {
				p, err := policy.FromSpec(spec, col.name)
				if err != nil {
					return nil, err
				}
				f = p
			}
			row[ti] = scorePolicy(col.data, f)
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// scorePolicy evaluates one policy over one target's corpus data: the
// Table-4 SIM ratio vs NS (per-benchmark, geomeaned) plus the quadratic
// scheduling-effort proxy vs LS (corpus totals — a share of work, so
// summing is the honest aggregation and never divides by a
// zero-scheduled benchmark).
func scorePolicy(data []*training.BenchData, f policy.Policy) PolicyCell {
	ratios := make([]float64, 0, len(data))
	var effort, effortLS int64
	decisions := 0
	for _, bd := range data {
		ns := training.PredictedTime(bd, policy.Never{})
		ft := training.PredictedTime(bd, f)
		ratios = append(ratios, 100*float64(ft)/float64(ns))
		for i := range bd.Records {
			r := &bd.Records[i]
			n := int64(r.Feat.BBLen())
			effortLS += n * n
			if policy.Schedules(f, r.Feat) {
				effort += n * n
				decisions++
			}
		}
	}
	cell := PolicyCell{
		Name:        f.Name(),
		ID:          policy.ID(f),
		Ratio:       geomean(ratios),
		LSDecisions: decisions,
	}
	if effortLS > 0 {
		cell.EffortVsLS = 100 * float64(effort) / float64(effortLS)
	}
	return cell
}

// Render formats the matrix: one block per metric, policies as rows and
// targets as columns.
func (r *PolicyMatrixResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Policy × target matrix: predicted time vs NS, scheduling effort vs LS (both suites, t=%d)", r.Threshold))
	fmt.Fprintf(&b, "%-26s", "policy \\ eval")
	for _, name := range r.Targets {
		fmt.Fprintf(&b, " %12s", truncate(name, 12))
	}
	b.WriteString("\n\npredicted time vs NS (lower is better; LS row is the bound):\n")
	for pi, spec := range r.Policies {
		fmt.Fprintf(&b, "%-26s", truncate(spec, 26))
		for ti := range r.Targets {
			fmt.Fprintf(&b, " %12.2f", r.Cells[pi][ti].Ratio)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nscheduling effort vs LS (share of quadratic work; NS would be 0):\n")
	for pi, spec := range r.Policies {
		fmt.Fprintf(&b, "%-26s", truncate(spec, 26))
		for ti := range r.Targets {
			fmt.Fprintf(&b, " %12.2f", r.Cells[pi][ti].EffortVsLS)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nblocks sent to the scheduler:\n")
	for pi, spec := range r.Policies {
		fmt.Fprintf(&b, "%-26s", truncate(spec, 26))
		for ti := range r.Targets {
			fmt.Fprintf(&b, " %12d", r.Cells[pi][ti].LSDecisions)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nA policy earns its keep when its effort sits well below LS while its\npredicted time stays near the LS row.\n")
	return b.String()
}
