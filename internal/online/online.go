// Package online closes the paper's training loop at serving time: the
// filters Cavazos & Moss induce once, offline, from a fixed benchmark
// suite are here retrained continuously from the compile server's live
// traffic and promoted safely into the serving path.
//
// The loop has four stages, one type each:
//
//   - Collector (Manager.Observe): taps the server's compile path. Every
//     block the server compiles is fingerprinted; blocks never seen
//     before are copied onto a bounded measurement queue, where a
//     background worker runs the list scheduler over the copy to obtain
//     the block's LS and NS cost estimates — exactly the (features,
//     LS-vs-NS benefit) instance the paper harvests by hand from its
//     benchmark suite. Repeat sightings only bump a weight counter; the
//     serving path pays one hash and one map probe per block.
//   - Reservoir: a bounded, deduplicated per-target sample store with
//     JSONL spill/restore, so labels survive restarts and the store
//     never outgrows memory. When full, new unique blocks displace old
//     ones with classic reservoir sampling.
//   - Trainer (Manager.Retrain): periodically, or on POST /v1/retrain,
//     labels the reservoir's training slice at threshold t (the paper's
//     noise filter) and runs Ripper over it through the existing
//     internal/training machinery, yielding a candidate filter.
//   - Shadow evaluator + versioned registry: the candidate is scored
//     against the incumbent on a held-out slice of the reservoir along
//     the paper's two axes — estimated application cycles and
//     scheduling-cost — and only a non-regressing candidate is
//     promoted: registered with full provenance (target, sample count,
//     threshold, rule text) and atomically hot-swapped into the serving
//     path. Every version stays listed for manual activation and
//     rollback.
//
// All state is per machine target: each target's traffic trains that
// target's filter, because the cost labels come from that target's
// timing model.
package online

import (
	"time"

	"schedfilter/internal/policy"
)

// holdoutK sends every sample whose content hash lands in a 1/K bucket
// to the shadow-evaluation holdout instead of the training slice (25%).
const holdoutK = 4

// Config parameterizes a Manager. The zero value of every field selects
// a sensible default (see withDefaults); Boot is the only field callers
// usually must set.
type Config struct {
	// Targets names the machine targets to manage; nil selects every
	// registered target.
	Targets []string
	// Boot is the incumbent filter registered as version 1 for every
	// target — the filter the server shipped with. nil selects LS
	// (always schedule).
	Boot policy.Policy
	// SampleCap bounds each target's reservoir (unique blocks); 0
	// selects 4096.
	SampleCap int
	// QueueDepth bounds the measurement queue shared by all targets;
	// overflow observations are dropped (and counted). 0 selects 256.
	QueueDepth int
	// Threshold is the paper's labelling threshold t in percent: a block
	// is an LS instance only if scheduling improved its estimate by more
	// than t%, an NS instance if it did not help at all, and dropped
	// otherwise. 0 selects 20 (use -1 for a true zero threshold).
	Threshold int
	// MinSamples gates retraining: a target with fewer labelled
	// training-slice samples reports "insufficient samples" instead of
	// inducing from noise. 0 selects 64.
	MinSamples int
	// Interval is the background retrain period per target; 0 disables
	// the periodic trainer (retraining happens only on demand).
	Interval time.Duration
	// SpillDir, when set, persists each target's reservoir as
	// <SpillDir>/<target>.jsonl: restored by NewManager, written by
	// Close (and Spill).
	SpillDir string
}

func (c Config) withDefaults() Config {
	if c.Boot == nil {
		c.Boot = policy.Always{}
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	switch {
	case c.Threshold == 0:
		c.Threshold = 20
	case c.Threshold < 0:
		c.Threshold = 0
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	return c
}
