package sim

import "schedfilter/internal/ir"

// Profile sampling and safe-point hot-swapping: the executor hooks the
// adaptive optimization system (internal/adaptive) needs. A timed or
// functional run may register a sampling callback that fires every
// Config.SampleEvery executed instructions — always at a block entry, so
// the machine sits at a safe point — and receives a snapshot of the
// execution profile accumulated so far. The callback may hand back
// function replacements ("hot-swaps"); the executor installs each one at
// the first safe point where doing so cannot corrupt suspended frames.
//
// Sample points are deterministic (they are a function of the executed
// instruction count alone), so two runs with the same callback behaviour
// observe identical snapshots; the profile itself stays deterministic.

// Snapshot is one periodic view of the execution profile, handed to the
// sampling callback at a safe point.
type Snapshot struct {
	// DynInstrs is the number of instructions executed so far.
	DynInstrs int64
	// Cycles is the pipeline makespan so far (timed runs only).
	Cycles int64
	// ExecCounts[fn][block] are the cumulative block-entry counts — the
	// same profile Result.ExecCounts reports at the end of the run. The
	// slices are a copy; the callback may retain them.
	ExecCounts [][]int64
}

// FnSwap asks the executor to replace a function with recompiled code at
// a safe point.
type FnSwap struct {
	// Fn is the index of the function to replace.
	Fn int
	// NewFn is the replacement. Replacing the function currently at the
	// top of the stack additionally requires an identical block skeleton
	// (same block count), so the resume position stays valid; scheduling
	// only permutes instructions within blocks, so recompiled code
	// always qualifies.
	NewFn *ir.Fn
}

// sample fires the sampling callback and applies any hot-swaps that are
// safe at this point. curFn is the function currently executing; control
// sits at one of its block entries. A replacement that fails to decode
// fails the run.
func (ex *executor) sample(curFn int) error {
	ex.nextSample = ex.res.DynInstrs + ex.sampleEvery
	snap := &Snapshot{
		DynInstrs:  ex.res.DynInstrs,
		ExecCounts: copyCounts(ex.res.ExecCounts),
	}
	if ex.issue != nil {
		// A taken transfer's bubble is charged when the next segment
		// issues; the snapshot counts it now, as the makespan then will.
		snap.Cycles = int64(ex.issue.Makespan())
		if ex.taken {
			snap.Cycles = max(snap.Cycles, int64(ex.issue.Cycle()+ex.bubble))
		}
	}
	for _, sw := range ex.onSample(snap) {
		if sw.NewFn != nil && sw.Fn >= 0 && sw.Fn < len(ex.p.Fns) {
			ex.pending[sw.Fn] = sw.NewFn
		}
	}
	return ex.applyPending(curFn)
}

// applyPending installs every pending swap that is safe right now;
// unsafe ones stay pending and are retried at the next sample.
func (ex *executor) applyPending(curFn int) error {
	for fi, nf := range ex.pending {
		if !ex.swapSafe(fi, curFn, nf) {
			continue
		}
		if err := ex.decode([]*ir.Fn{nf}, ex.code[fi:fi+1]); err != nil {
			return err
		}
		ex.p.Fns[fi] = nf
		// Keep the profile when the block skeleton is preserved (the
		// recompile-and-reschedule case); otherwise restart it.
		if len(nf.Blocks) != len(ex.res.ExecCounts[fi]) {
			ex.res.ExecCounts[fi] = make([]int64, len(nf.Blocks))
			ex.res.TakenCounts[fi] = make([]int64, len(nf.Blocks))
		}
		delete(ex.pending, fi)
		ex.res.Swaps++
	}
	return nil
}

// swapSafe reports whether replacing function fi is safe at this point.
// A function suspended in a caller frame holds a resume position into its
// old instruction order, so it must not be replaced; the function at the
// top of the stack sits at a block entry and may be replaced as long as
// the replacement keeps the block skeleton.
func (ex *executor) swapSafe(fi, curFn int, nf *ir.Fn) bool {
	for i := range ex.frames {
		if ex.frames[i].fn == fi {
			return false
		}
	}
	if fi == curFn && len(nf.Blocks) != len(ex.p.Fns[fi].Blocks) {
		return false
	}
	return true
}

func copyCounts(src [][]int64) [][]int64 {
	out := make([][]int64, len(src))
	for i, row := range src {
		out[i] = append([]int64(nil), row...)
	}
	return out
}
