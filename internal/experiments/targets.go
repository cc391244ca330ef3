package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// Cross-target generalization: the paper induces its filter against one
// timing model (the MPC7410 simplified machine simulator) and never asks
// whether the learned should-we-schedule heuristic transfers to a
// different machine. The block features are target-independent, so a
// filter trained on target A evaluates unmodified under target B — what
// changes is whether its decisions still pick the blocks that benefit.
// This experiment trains one filter per target over suite 1 and scores
// every (train, eval) pair by predicted running time relative to
// never-scheduling under the eval target, the same SIM metric as
// Table 4.

// defaultMatrixTargets are the machines the transfer matrix covers when
// the caller does not choose: the paper's default, the single-issue
// ablation, and the 4-wide variant.
var defaultMatrixTargets = []string{"mpc7410", "scalar1", "wide4"}

// targetMatrixThreshold is the labelling threshold the matrix filters are
// induced at: t=20, the paper's sweet spot between filter precision and
// scheduling-time savings.
const targetMatrixThreshold = 20

// TargetCell is one (train target, eval target) cell of the matrix.
type TargetCell struct {
	// Ratio is 100 · SIM(filter trained on row target) / SIM(NS), both
	// measured under the column (eval) target. Lower is better; 100
	// means the filter's decisions bought nothing.
	Ratio float64 `json:"ratio"`
	// LSDecisions counts blocks the filter sent to the scheduler across
	// the eval target's suite-1 instances.
	LSDecisions int `json:"ls_decisions"`
}

// TargetMatrixResult is the cross-target generalization grid, written to
// BENCH_targets.json by `schedexp -exp targets -json`.
type TargetMatrixResult struct {
	// Targets names the machines, in both row (train) and column (eval)
	// order.
	Targets []string `json:"targets"`
	// Threshold is the labelling threshold the filters were induced at.
	Threshold int `json:"threshold"`
	// Cells[a][b] scores the filter trained on Targets[a] when its
	// decisions are applied under Targets[b].
	Cells [][]TargetCell `json:"cells"`
	// LS[b] is 100 · SIM(always schedule) / SIM(NS) under Targets[b] —
	// the best any filter could buy on that machine.
	LS []float64 `json:"ls"`
	// TransferLoss[a][b] = Cells[a][b].Ratio − Cells[b][b].Ratio: how
	// many points of predicted time training on the wrong machine costs
	// against the natively trained filter (0 on the diagonal, positive
	// means worse).
	TransferLoss [][]float64 `json:"transfer_loss"`
}

// CrossTargets builds the transfer matrix over the named registered
// targets (nil selects defaultMatrixTargets) at labelling threshold t
// (<= 0 selects targetMatrixThreshold). Suite-1 data is collected once
// per target — block features are shared, but both cost estimates and
// therefore the labels are the target's own.
func CrossTargets(cfg Config, targetNames []string, t int) (*TargetMatrixResult, error) {
	if len(targetNames) == 0 {
		targetNames = defaultMatrixTargets
	}
	if t <= 0 {
		t = targetMatrixThreshold
	}
	cfg = withConfigDefaults(cfg)

	type perTarget struct {
		data   []*training.BenchData
		filter *policy.Induced
	}
	cols := make([]*perTarget, len(targetNames))
	for i, name := range targetNames {
		tgt, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		data, err := training.CollectAllJobs(workloads.Suite1(), tgt.Model, cfg.CompileOpts, cfg.Jobs)
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", name, err)
		}
		cols[i] = &perTarget{
			data:   data,
			filter: training.TrainFilter(data, t, cfg.RipperOpts, nil),
		}
	}

	res := &TargetMatrixResult{
		Targets:   append([]string(nil), targetNames...),
		Threshold: t,
	}
	// simRatio is the Table-4 metric: per-benchmark predicted time under
	// the filter relative to NS, geomeaned over the suite.
	simRatio := func(eval *perTarget, f policy.Policy) (float64, int) {
		ratios := make([]float64, 0, len(eval.data))
		decisions := 0
		for _, bd := range eval.data {
			ns := training.PredictedTime(bd, policy.Never{})
			ft := training.PredictedTime(bd, f)
			ratios = append(ratios, 100*float64(ft)/float64(ns))
			ls, _ := training.Decisions(bd, f)
			decisions += ls
		}
		return geomean(ratios), decisions
	}
	for _, eval := range cols {
		ls, _ := simRatio(eval, policy.Always{})
		res.LS = append(res.LS, ls)
	}
	for _, train := range cols {
		row := make([]TargetCell, len(cols))
		for bi, eval := range cols {
			ratio, dec := simRatio(eval, train.filter)
			row[bi] = TargetCell{Ratio: ratio, LSDecisions: dec}
		}
		res.Cells = append(res.Cells, row)
	}
	res.TransferLoss = make([][]float64, len(cols))
	for ai := range cols {
		res.TransferLoss[ai] = make([]float64, len(cols))
		for bi := range cols {
			res.TransferLoss[ai][bi] = res.Cells[ai][bi].Ratio - res.Cells[bi][bi].Ratio
		}
	}
	return res, nil
}

// withConfigDefaults fills the zero-valued pieces CrossTargets needs when
// handed a bare Config (the schedexp path always passes a full one).
func withConfigDefaults(cfg Config) Config {
	def := DefaultConfig()
	zero := Config{}
	if cfg.RipperOpts == zero.RipperOpts {
		cfg.RipperOpts = def.RipperOpts
	}
	if cfg.CompileOpts == zero.CompileOpts {
		cfg.CompileOpts = def.CompileOpts
	}
	return cfg
}

// Render formats the matrix: rows train, columns evaluate.
func (r *TargetMatrixResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Cross-target generalization: predicted time vs NS (suite 1, t=%d)", r.Threshold))
	fmt.Fprintf(&b, "%-14s", "train \\ eval")
	for _, name := range r.Targets {
		fmt.Fprintf(&b, " %12s", truncate(name, 12))
	}
	b.WriteString("\n")
	for ai, name := range r.Targets {
		fmt.Fprintf(&b, "%-14s", truncate(name, 14))
		for bi := range r.Targets {
			fmt.Fprintf(&b, " %12.2f", r.Cells[ai][bi].Ratio)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-14s", "LS (bound)")
	for _, v := range r.LS {
		fmt.Fprintf(&b, " %12.2f", v)
	}
	b.WriteString("\n\ntransfer loss vs natively trained filter (points of predicted time):\n")
	for ai, name := range r.Targets {
		fmt.Fprintf(&b, "%-14s", truncate(name, 14))
		for bi := range r.Targets {
			fmt.Fprintf(&b, " %12.2f", r.TransferLoss[ai][bi])
		}
		b.WriteString("\n")
	}
	b.WriteString("\nLower ratios are better; the diagonal is the natively trained filter.\n")
	return b.String()
}
