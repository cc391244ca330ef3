package core

import (
	"time"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
)

// SuperblockStats aggregates superblock scheduling over a program.
type SuperblockStats struct {
	Traces     int
	Duplicated int
	// TraceBlocks/LocalBlocks partition the original block population.
	TraceBlocks int
	LocalBlocks int
	SchedTime   time.Duration
}

// ApplySuperblocks runs profile-guided superblock scheduling over the
// whole program in place: per function, hot traces are formed from the
// edge profile (exec and taken counts per block, as produced by a
// functional simulator run), tail-duplicated, and scheduled as single
// units; all remaining blocks are list-scheduled locally. This is the
// "LS-superblock" protocol of the superblock experiment — the extension
// the paper measured at 1-2% over local scheduling.
func ApplySuperblocks(m *machine.Model, p *ir.Program, exec, taken [][]int64, opt sched.SuperblockOptions) SuperblockStats {
	var st SuperblockStats
	start := time.Now()
	for fi, fn := range p.Fns {
		prof := make([]sched.BlockProfile, len(fn.Blocks))
		if fi < len(exec) {
			for bi := range prof {
				if bi < len(exec[fi]) {
					prof[bi].Exec = exec[fi][bi]
				}
				if fi < len(taken) && bi < len(taken[fi]) {
					prof[bi].Taken = taken[fi][bi]
				}
			}
		}
		s := sched.ScheduleSuperblocks(m, fn, prof, opt, nil)
		st.Traces += s.Traces
		st.Duplicated += s.Duplicated
		st.TraceBlocks += s.TraceBlocks
		st.LocalBlocks += s.LocalBlocks
	}
	st.SchedTime = time.Since(start)
	return st
}
