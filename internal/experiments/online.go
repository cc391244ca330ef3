package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/online"
	"schedfilter/internal/policy"
	"schedfilter/internal/workloads"
)

// The online experiment replays the compile server's retrain-under-load
// lifecycle deterministically, without HTTP: traffic arrives in waves
// (suite 1, then the FP suite), each wave's blocks are measured into the
// sample reservoir, and after every wave one retraining round runs —
// threshold-t labelling, Ripper induction, shadow evaluation against the
// incumbent on the held-out slice, and gated promotion. The artifact
// records, per round, the paper's two axes (estimated app cycles and
// scheduling cost on the holdout) for candidate and incumbent, plus the
// gate's verdict — how the served filter evolves as evidence accumulates.

// OnlineRound is one traffic wave plus the retraining round after it.
type OnlineRound struct {
	Round     int      `json:"round"`
	Workloads []string `json:"workloads"`
	// Reservoir and Holdout are the sample-store sizes when the round's
	// retraining ran; LSLabels/NSLabels its threshold-t labelling.
	Reservoir int `json:"reservoir"`
	Holdout   int `json:"holdout"`
	LSLabels  int `json:"ls_labels"`
	NSLabels  int `json:"ns_labels"`
	// Version is the candidate's registry version; Promoted and Reason
	// the gate's verdict; ActiveVersion the serving version afterwards.
	Version       int    `json:"version"`
	Promoted      bool   `json:"promoted"`
	Reason        string `json:"reason"`
	ActiveVersion int    `json:"active_version"`
	// Candidate and Incumbent are the shadow scores on the holdout.
	Candidate *online.Score `json:"candidate,omitempty"`
	Incumbent *online.Score `json:"incumbent,omitempty"`
}

// OnlineResult is the whole lifecycle: every round plus the final
// registry state and collector totals. Only scheduling-order-independent
// counters appear (total observations and unique blocks measured); the
// known/enqueued split races with measurement workers and would make the
// artifact nondeterministic.
type OnlineResult struct {
	Target    string           `json:"target"`
	Threshold int              `json:"threshold"`
	Boot      string           `json:"boot"`
	Rounds    []OnlineRound    `json:"rounds"`
	Versions  []online.Version `json:"versions"`
	Observed  int64            `json:"blocks_observed"`
	Unique    int              `json:"blocks_unique"`
}

// RunOnline drives the online-learning loop over the bundled workloads.
// Deterministic: the reservoir is keyed and sorted by content, induction
// is seeded, the measurement queue is sized so no observation drops, and
// the sample cap is sized so no reservoir eviction happens (eviction
// order would depend on measurement-worker scheduling).
func RunOnline(cfg Config) (*OnlineResult, error) {
	target := machine.DefaultTargetName
	t := 20
	mgr, err := online.NewManager(online.Config{
		Targets:    []string{target},
		Boot:       policy.Never{},
		Threshold:  t,
		MinSamples: 16,
		SampleCap:  1 << 16,
		QueueDepth: 1 << 16,
	})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()

	res := &OnlineResult{Target: target, Threshold: t, Boot: policy.Never{}.Name()}
	waves := [][]workloads.Workload{workloads.Suite1(), workloads.Suite2()}
	for i, wave := range waves {
		round := OnlineRound{Round: i + 1}
		for j := range wave {
			w := &wave[j]
			mod, err := w.CompileWithOptions(cfg.CompileOpts.Frontend)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			prog, err := jit.Compile(mod, cfg.CompileOpts.JIT)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			mgr.Observe(target, prog, nil)
			round.Workloads = append(round.Workloads, w.Name)
		}
		rep, err := mgr.Retrain(target)
		if err != nil {
			return nil, err
		}
		round.Reservoir = rep.Samples + rep.Holdout
		round.Holdout = rep.Holdout
		round.LSLabels = rep.LSLabels
		round.NSLabels = rep.NSLabels
		round.Version = rep.Version
		round.Promoted = rep.Promoted
		round.Reason = rep.Reason
		round.ActiveVersion = rep.ActiveVersion
		round.Candidate = rep.Candidate
		round.Incumbent = rep.Incumbent
		res.Rounds = append(res.Rounds, round)
	}
	res.Versions = mgr.Registry(target).List()
	res.Observed = mgr.Metrics().Observed
	res.Unique = mgr.Reservoir(target).Len()
	return res, nil
}

// Render prints the lifecycle as a small table per round.
func (o *OnlineResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Online learning: retrain-under-load on %s (boot %s, t=%d)",
		o.Target, o.Boot, o.Threshold))
	fmt.Fprintf(&b, "%-5s %-9s %-7s %-11s %-9s %12s %12s %s\n",
		"round", "samples", "holdout", "labels L/N", "verdict", "cand cycles", "inc cycles", "serving")
	for _, r := range o.Rounds {
		verdict := "rejected"
		if r.Promoted {
			verdict = "promoted"
		}
		if r.Version == 0 {
			verdict = "skipped"
		}
		var cand, inc int64
		if r.Candidate != nil {
			cand = r.Candidate.EstCycles
		}
		if r.Incumbent != nil {
			inc = r.Incumbent.EstCycles
		}
		fmt.Fprintf(&b, "%-5d %-9d %-7d %4d/%-6d %-9s %12d %12d v%d\n",
			r.Round, r.Reservoir, r.Holdout, r.LSLabels, r.NSLabels, verdict, cand, inc, r.ActiveVersion)
	}
	fmt.Fprintf(&b, "\nRegistry after %d rounds:\n", len(o.Rounds))
	for _, v := range o.Versions {
		fmt.Fprintf(&b, "  v%-3d %-11s %-22q hash=%s", v.Version, v.State, v.Label, v.RuleHash)
		if v.Samples > 0 {
			fmt.Fprintf(&b, " samples=%d/%d", v.Samples, v.HoldoutSamples)
		}
		if v.Reason != "" {
			fmt.Fprintf(&b, "  %s", v.Reason)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "\nCollector: %d blocks observed, %d unique blocks measured.\n",
		o.Observed, o.Unique)
	return b.String()
}
