package experiments

import (
	"fmt"
	"strings"
	"time"

	"schedfilter/internal/adaptive"
	"schedfilter/internal/par"
	"schedfilter/internal/policy"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// The adaptive protocol: instead of scheduling (or not) at compile time,
// run each benchmark through the adaptive optimization system — baseline
// tier first, hot functions recompiled to filter-gated scheduled code at
// the sample that promotes them — and compare its cycle counts against
// the three offline protocols (NS, LS, filtered L/N) on the same
// programs.

// AdaptiveRow is one benchmark's numbers under every protocol. Its JSON
// fields reproduce on any host and form the artifact's deterministic
// section; Timing holds the rest.
type AdaptiveRow struct {
	Bench string `json:"bench"`
	Suite int    `json:"suite"`

	// Application cycles per protocol; the adaptive tier's for the
	// online run (cold start included) and once it has reached steady
	// state.
	NSCycles             int64 `json:"ns_cycles"`
	LSCycles             int64 `json:"ls_cycles"`
	FilteredCycles       int64 `json:"filtered_cycles"`
	AdaptiveOnlineCycles int64 `json:"adaptive_online_cycles"`
	AdaptiveSteadyCycles int64 `json:"adaptive_steady_cycles"`

	// Adaptive tier telemetry.
	Promotions       int     `json:"promotions"`
	Installed        int     `json:"installed"`
	InstalledPost    int     `json:"installed_post"`
	BlocksConsidered int     `json:"blocks_considered"`
	BlocksScheduled  int     `json:"blocks_scheduled"`
	RecoveredFrac    float64 `json:"recovered_fraction"`

	Timing AdaptiveRowTiming `json:"-"`
}

// AdaptiveRowTiming is the part of a row that changes from run to run:
// wall-clock scheduling cost per protocol (the offline passes'
// scheduling-phase time, the adaptive tier's recompile time).
type AdaptiveRowTiming struct {
	Bench             string `json:"bench"`
	LSSchedNs         int64  `json:"ls_sched_ns"`
	FilteredSchedNs   int64  `json:"filtered_sched_ns"`
	AdaptiveCompileNs int64  `json:"adaptive_compile_ns"`
}

// AdaptiveResult holds the whole comparison plus suite-wide aggregates.
type AdaptiveResult struct {
	FilterLabel string        `json:"filter"`
	Threshold   int           `json:"threshold"`
	Rows        []AdaptiveRow `json:"rows"`
	// ScheduledFrac is the share of hot-swapped blocks the filter sent
	// to the scheduler, summed over all benchmarks.
	ScheduledFrac float64 `json:"scheduled_fraction"`
	// RecoveredFrac is Σ(NS − adaptive-steady) / Σ(NS − LS): how much of
	// the always-schedule improvement the adaptive tier recovers once it
	// reaches steady state.
	RecoveredFrac float64 `json:"recovered_fraction"`
}

// Adaptive runs the adaptive protocol over both suites with the factory
// filter — a single L/N filter induced at threshold t from all bundled
// training data, the filter a JIT would ship — and compares it with the
// offline protocols.
func (r *Runner) Adaptive(t int) (*AdaptiveResult, error) {
	data1, err := r.Suite1()
	if err != nil {
		return nil, err
	}
	data2, err := r.Suite2()
	if err != nil {
		return nil, err
	}
	all := append(append([]*training.BenchData(nil), data1...), data2...)
	f := training.TrainFilter(all, t, r.cfg.RipperOpts, nil)
	f.Label = fmt.Sprintf("L/N t=%d (factory)", t)

	// Warm the app-time cache in parallel: the three offline protocols'
	// timed simulations are deterministic. The loop below — which measures
	// wall-clock scheduling and recompile time — stays serial so its
	// timings are not distorted.
	if err := par.DoErr(r.cfg.Jobs, len(all), func(i int) error {
		bd := all[i]
		if _, err := r.AppTime(bd, policy.Never{}); err != nil {
			return err
		}
		if _, err := r.AppTime(bd, policy.Always{}); err != nil {
			return err
		}
		_, err := r.AppTime(bd, f)
		return err
	}); err != nil {
		return nil, err
	}

	res := &AdaptiveResult{FilterLabel: f.Label, Threshold: t}
	var sumLSGain, sumSteadyGain int64
	var sumSched, sumConsidered int
	for _, bd := range all {
		w := workloads.ByName(bd.Name)
		mod, err := w.CompileWithOptions(r.cfg.CompileOpts.Frontend)
		if err != nil {
			return nil, err
		}
		row := AdaptiveRow{Bench: bd.Name, Suite: int(bd.Suite)}
		if row.NSCycles, err = r.AppTime(bd, policy.Never{}); err != nil {
			return nil, err
		}
		if row.LSCycles, err = r.AppTime(bd, policy.Always{}); err != nil {
			return nil, err
		}
		if row.FilteredCycles, err = r.AppTime(bd, f); err != nil {
			return nil, err
		}
		lsT, _ := r.SchedTime(bd, policy.Always{})
		flT, _ := r.SchedTime(bd, f)

		ares, err := adaptive.Run(bd.Prog, adaptive.Config{
			Model:  r.cfg.Model,
			Policy: f,
			Module: mod,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: adaptive run: %w", bd.Name, err)
		}
		mt := ares.Metrics
		row.AdaptiveOnlineCycles = ares.Online.Cycles
		row.AdaptiveSteadyCycles = ares.Steady.Cycles
		row.Promotions = mt.Promotions
		row.Installed = mt.Installed
		row.InstalledPost = mt.InstalledPost
		row.BlocksConsidered = mt.BlocksConsidered
		row.BlocksScheduled = mt.BlocksScheduled
		row.Timing = AdaptiveRowTiming{
			Bench:             bd.Name,
			LSSchedNs:         int64(lsT),
			FilteredSchedNs:   int64(flT),
			AdaptiveCompileNs: int64(mt.CompileTime),
		}
		if gain := row.NSCycles - row.LSCycles; gain > 0 {
			row.RecoveredFrac = float64(row.NSCycles-row.AdaptiveSteadyCycles) / float64(gain)
		}
		sumLSGain += row.NSCycles - row.LSCycles
		sumSteadyGain += row.NSCycles - row.AdaptiveSteadyCycles
		sumSched += mt.BlocksScheduled
		sumConsidered += mt.BlocksConsidered
		res.Rows = append(res.Rows, row)
	}
	if sumLSGain > 0 {
		res.RecoveredFrac = float64(sumSteadyGain) / float64(sumLSGain)
	}
	if sumConsidered > 0 {
		res.ScheduledFrac = float64(sumSched) / float64(sumConsidered)
	}
	return res, nil
}

// Render prints the comparison in the paper's table shape.
func (a *AdaptiveResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Adaptive tier vs offline protocols (cycles; filter: %s)", a.FilterLabel))
	fmt.Fprintf(&b, "%-11s %12s %12s %12s %12s %12s %7s %9s %s\n",
		"benchmark", "NS", "LS", "L/N", "adp-online", "adp-steady", "recov", "sched/all", "compile")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-11s %12d %12d %12d %12d %12d %6.1f%% %4d/%-4d %v\n",
			r.Bench, r.NSCycles, r.LSCycles, r.FilteredCycles,
			r.AdaptiveOnlineCycles, r.AdaptiveSteadyCycles, 100*r.RecoveredFrac,
			r.BlocksScheduled, r.BlocksConsidered,
			time.Duration(r.Timing.AdaptiveCompileNs).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "\nAggregate: adaptive steady state recovers %.1f%% of the LS improvement\n",
		100*a.RecoveredFrac)
	fmt.Fprintf(&b, "while scheduling %.1f%% of hot-swapped blocks.\n", 100*a.ScheduledFrac)
	return b.String()
}

// Artifact returns the comparison as an artifact: the rows' JSON fields
// and the aggregates are deterministic, the rows' Timing and the host
// form the timing section.
func (a *AdaptiveResult) Artifact() Artifact {
	timing := struct {
		host
		Rows []AdaptiveRowTiming `json:"rows"`
	}{host: thisHost()}
	for _, row := range a.Rows {
		timing.Rows = append(timing.Rows, row.Timing)
	}
	return Artifact{Deterministic: a, Timing: timing}
}
