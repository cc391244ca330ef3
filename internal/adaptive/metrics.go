package adaptive

import "time"

// Metrics are the controller's per-tier counters: what the profiler saw,
// what the policy promoted and recompiled, and what the filter let the
// scheduler touch.
type Metrics struct {
	// Samples is the number of profile snapshots the controller saw.
	Samples int
	// Promotions counts functions the policy promoted; each is
	// recompiled at the sample that promotes it.
	Promotions int
	// Installed counts functions hot-swapped during the run, at safe
	// points; InstalledPost counts those the run never reached a safe
	// point for, installed after it ended.
	Installed     int
	InstalledPost int
	// BlocksConsidered / BlocksScheduled / BlocksChanged aggregate the
	// optimized tier's scheduling statistics over recompiled functions:
	// how many blocks the filter saw, sent to the list scheduler, and
	// actually reordered.
	BlocksConsidered int
	BlocksScheduled  int
	BlocksChanged    int
	// CompileTime is the summed wall-clock time spent recompiling (the
	// measured scheduling cost).
	CompileTime time.Duration
	// CompileCyclesCharged is the policy's modelled compile cost summed
	// over promotions, in simulated cycles.
	CompileCyclesCharged int64
	// PromotedFns names the recompiled functions, in promotion order.
	PromotedFns []string
}
