package core

import (
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sched"
)

// ApplySuperblocks runs profile-guided superblock scheduling over the
// whole program in place. exec and taken are a functional simulator
// run's per-function, per-block execution and taken-branch counts. Per
// function, hot traces are formed from that edge profile and
// tail-duplicated; the policy then decides each trace on the features of
// its concatenated instructions, exactly as Apply decides a block. An
// approved trace is scheduled as one superblock, a rejected one is
// list-scheduled block by block, and every block outside a trace is
// list-scheduled locally. policy.Always approves every trace without
// extracting features: that is the "LS superblock" protocol, the
// extension the paper measured at 1-2% over local scheduling.
func ApplySuperblocks(m *machine.Model, p *ir.Program, exec, taken [][]int64, f policy.Policy) sched.SuperblockStats {
	var decide func(features.Vector) bool
	if _, always := f.(policy.Always); !always {
		decide = func(v features.Vector) bool { return policy.Schedules(f, v) }
	}
	var st sched.SuperblockStats
	for fi, fn := range p.Fns {
		s := sched.ScheduleSuperblocks(m, fn, sched.Profile(exec[fi], taken[fi]), decide)
		st.Traces += s.Traces
		st.Duplicated += s.Duplicated
		st.TraceBlocks += s.TraceBlocks
		st.LocalBlocks += s.LocalBlocks
	}
	return st
}
