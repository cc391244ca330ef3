package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/machine"
	"schedfilter/internal/par"
	"schedfilter/internal/policy"
	"schedfilter/internal/workloads"
)

// Model comparison (section 3.1 of the paper): "We have done some
// investigation of older processors, which have less 'dynamic' scheduling
// ... and static scheduling does give bigger percent improvements on such
// architectures." This experiment quantifies that claim by running the LS
// protocol against NS under both the modern dual-issue MPC7410 model and
// an older scalar model.

// ModelCompareResult holds LS-vs-NS app-time ratios per benchmark under
// each machine model.
type ModelCompareResult struct {
	Benchmarks []string
	Models     []string
	// Rel[m][b] is LS app time / NS app time under model m.
	Rel      [][]float64
	Geomeans []float64
}

// compareModels evaluates how much always-scheduling helps under each of
// the given machine models, over suite 1. Each model gets its own
// pipeline: the scheduler's decisions (and the labels) depend on the
// model's latencies.
func compareModels(base Config, models []*machine.Model) (*ModelCompareResult, error) {
	res := &ModelCompareResult{}
	for _, w := range workloads.Suite1() {
		res.Benchmarks = append(res.Benchmarks, w.Name)
	}
	for _, m := range models {
		cfg := base
		cfg.Model = m
		r := NewRunner(cfg)
		data, err := r.Suite1()
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(data))
		if err := par.DoErr(cfg.Jobs, len(data), func(i int) error {
			bd := data[i]
			ns, err := r.AppTime(bd, policy.Never{})
			if err != nil {
				return err
			}
			ls, err := r.AppTime(bd, policy.Always{})
			if err != nil {
				return err
			}
			row[i] = float64(ls) / float64(ns)
			return nil
		}); err != nil {
			return nil, err
		}
		res.Models = append(res.Models, m.Name)
		res.Rel = append(res.Rel, row)
		res.Geomeans = append(res.Geomeans, geomean(row))
	}
	return res, nil
}

// Render formats the model comparison.
func (m *ModelCompareResult) Render() string {
	var b strings.Builder
	header(&b, "Model comparison: LS application time relative to NS per machine model")
	fmt.Fprintf(&b, "%-12s", "model")
	for _, name := range m.Benchmarks {
		fmt.Fprintf(&b, " %9s", truncate(name, 9))
	}
	fmt.Fprintf(&b, " %9s\n", "geomean")
	for i, name := range m.Models {
		fmt.Fprintf(&b, "%-12s", name)
		for _, v := range m.Rel[i] {
			fmt.Fprintf(&b, " %9.4f", v)
		}
		fmt.Fprintf(&b, " %9.4f\n", m.Geomeans[i])
	}
	b.WriteString("\nLower is better; the older, less dynamically scheduled machine should gain more from static scheduling.\n")
	return b.String()
}
