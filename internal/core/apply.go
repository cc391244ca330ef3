// Package core implements the paper's primary contribution: deciding,
// per basic block, whether running the list scheduler is worth it, applied
// inside the scheduling phase and charged to it.
//
// The decision procedure itself is policy.Policy (the fixed NS/LS
// protocols, size and cost thresholds, the induced L/N filter, portfolios);
// a policy consumes only the cheap single-pass features of
// internal/features. Apply runs one policy-gated scheduling pass over a
// compiled program and times the whole phase — including feature
// extraction and policy evaluation, as the paper requires ("the time to
// apply the filter was included in the cost we attribute to scheduling").
package core

import (
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sched"
)

// Stats reports what a scheduling pass did to a program.
type Stats struct {
	// Blocks is the number of candidate blocks.
	Blocks int
	// Scheduled is how many blocks the policy sent to the scheduler
	// (the paper's run-time "LS" classification count).
	Scheduled int
	// NotScheduled is the complement (run-time "NS" count).
	NotScheduled int
	// Changed is how many scheduled blocks actually changed order.
	Changed int
	// SchedTime is the wall-clock time of the whole pass, including
	// feature extraction and policy evaluation.
	SchedTime time.Duration
	// CostBefore and CostAfter sum the estimator costs of all scheduled
	// blocks before and after the pass.
	CostBefore int64
	CostAfter  int64
	// CacheHits and CacheMisses split Scheduled for passes with a
	// Pass.Cache: blocks replayed from the content-addressed cache vs
	// actually run through the list scheduler. Both zero otherwise.
	CacheHits   int
	CacheMisses int
	// Phases is the per-phase wall-time breakdown of the pass (cache
	// lookup, DAG build, list schedule, estimator). Populated only when
	// Pass.Timed is set; all zero otherwise.
	Phases sched.PhaseTimes
}

// Pass configures one scheduling pass.
type Pass struct {
	// Cache, when non-nil, is the content-addressed scheduled-block
	// cache: approved blocks are looked up by fingerprint first, and only
	// misses run the list scheduler (the result is then inserted for the
	// next identical block). Across repeated compile requests nearly
	// every block is a replay.
	Cache *codecache.Cache
	// Timed turns on the scratch's phase timing so Stats.Phases carries
	// the breakdown the serving layer feeds into traces and histograms.
	// It costs two monotonic clock reads per phase and no allocations.
	Timed bool
}

// Apply runs the scheduling phase over every block of the program, in
// place: blocks the policy approves are list-scheduled, the rest are left
// in their original order. It returns pass statistics.
//
// Apply writes only the blocks the policy approves, and only by pointing
// a block's Instrs at a new slice when its order changes. It writes no
// other block, no function and no instruction array, so a caller may
// share every unapproved block, and every instruction array, with a
// program that must stay unchanged.
//
// The fixed protocols short-circuit exactly as a production JIT would: NS
// does no work at all, LS skips feature extraction, and only the filtered
// protocols pay for features plus the policy decision.
func Apply(m *machine.Model, p *ir.Program, f policy.Policy, o Pass) Stats {
	var st Stats
	start := time.Now()
	s := sched.GetScratch()
	if o.Timed {
		s.StartTiming()
	}
	_, always := f.(policy.Always)
	_, never := f.(policy.Never)
	for _, fn := range p.Fns {
		for _, b := range fn.Blocks {
			st.Blocks++
			schedule := always
			if !always && !never {
				schedule, _ = f.Decide(features.ExtractBlock(b))
			}
			if !schedule {
				st.NotScheduled++
				continue
			}
			st.Scheduled++
			res, hit := sched.ScheduleBlock(m, b, o.Cache, s)
			if o.Cache != nil {
				if hit {
					st.CacheHits++
				} else {
					st.CacheMisses++
				}
			}
			st.CostBefore += int64(res.CostBefore)
			st.CostAfter += int64(res.CostAfter)
			if res.Changed {
				st.Changed++
			}
		}
	}
	if o.Timed {
		st.Phases = s.StopTiming()
	}
	sched.PutScratch(s)
	st.SchedTime = time.Since(start)
	return st
}

// Decide runs only the decision part of the pass (no scheduling) and
// returns per-block decisions in program order. Used to compare protocols
// without mutating a program, and to dedupe identical decision vectors
// across thresholds.
func Decide(p *ir.Program, f policy.Policy) []bool {
	out := make([]bool, 0, p.NumBlocks())
	for _, fn := range p.Fns {
		for _, b := range fn.Blocks {
			schedule, _ := f.Decide(features.ExtractBlock(b))
			out = append(out, schedule)
		}
	}
	return out
}
