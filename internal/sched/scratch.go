package sched

import (
	"sync"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Scratch is the reusable working memory of one scheduling call: the
// dependence-DAG storage, the ready/indegree/critical-path arrays, the
// machine issue state, and the builder's flat register and edge tables. A
// Scratch reaches a steady state after a few blocks, at which point
// ScheduleInstrsScratch performs a single allocation per call (the
// returned Order slice).
//
// A Scratch is not safe for concurrent use; use one per goroutine (the
// package-level pool behind GetScratch hands each caller its own).
type Scratch struct {
	// dag is the reusable DAG ScheduleInstrsScratch builds into. DAGs
	// returned by buildDAG are freshly allocated and never alias it.
	dag DAG

	// state is the machine issue state, rebuilt only when the model
	// changes between calls.
	state *machine.IssueState

	// Scheduling arrays (scheduleDAG). buckets is the indexed ready
	// list: buckets[t] holds the ready instructions whose cached
	// earliest-start lower bound is cycle t.
	cp      []int
	indeg   []int
	inReady []bool
	buckets [][]int32

	// DAG-construction state (buildDAGInto). epoch stamps let the flat
	// tables invalidate in O(1) per block instead of being cleared;
	// entries from earlier epochs read as empty.
	epoch uint32

	// regs holds one last-writer/last-reader table per register class,
	// indexed by register number.
	regs [4][]regEntry

	// edgeTo/succPos/predPos dedupe edge insertion: every builder edge
	// targets the instruction currently being processed, so one stamped
	// cell per source node suffices to detect a duplicate (from, to)
	// pair and bump its latency in place.
	edgeTo  []int64
	succPos []int32
	predPos []int32

	useLists [][]int
	nUse     int
	loads    []int
	live     []liveStore

	// work counts the scheduling work of every scheduleDAG call on this
	// scratch, in the units Work documents.
	work int64

	// Phase timing (timing.go). Off by default; when on, the
	// scheduling entry points accumulate per-phase wall time into
	// phases. Held by value so timed runs stay allocation-free.
	timing bool
	phases PhaseTimes
}

// regEntry is one register's builder state: the instruction that last
// wrote it and the slot in useLists collecting reads since that write.
// Entries with a stale epoch are empty.
type regEntry struct {
	epoch uint32
	def   int32
	use   int32
}

// NewScratch returns an empty scratch. Most callers should prefer
// GetScratch/PutScratch, which recycle scratches through a pool.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch takes a scratch from the package pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch to the package pool. The scratch must not
// be used after the call. Timing mode is switched off so a pooled
// scratch never leaks one caller's instrumentation into the next.
func PutScratch(s *Scratch) {
	s.timing = false
	s.phases = PhaseTimes{}
	scratchPool.Put(s)
}

// Work returns the scheduling work done on this scratch so far, a
// deterministic count of the scheduler's own steps: per scheduled block,
// 4 units per instruction for the four linear sweeps (DAG build,
// critical paths, estimator walk, issue), 2 per dependence edge, 1 per
// ready candidate scanned and 1 per stale re-pick. A block's cost is the
// difference of two readings; it does not depend on the scratch's
// history or on timing mode.
func (s *Scratch) Work() int64 { return s.work }

// stateFor returns the scratch's issue state reset for a fresh block,
// rebuilding it if the machine model changed since the last call.
func (s *Scratch) stateFor(m *machine.Model) *machine.IssueState {
	if s.state == nil || s.state.Model() != m {
		s.state = machine.NewIssueState(m)
	} else {
		s.state.Reset()
	}
	return s.state
}

// begin starts a new block build of n instructions: a fresh epoch
// invalidates the register and edge tables, and the per-node edge arrays
// are sized to the block.
func (s *Scratch) begin(n int) {
	s.epoch++
	if s.epoch == 0 {
		// The epoch counter wrapped: stale stamps from 2^32 blocks ago
		// could now collide, so clear the tables once and restart at 1.
		for i := range s.edgeTo {
			s.edgeTo[i] = -1
		}
		for c := range s.regs {
			for j := range s.regs[c] {
				s.regs[c][j].epoch = 0
			}
		}
		s.epoch = 1
	}
	s.nUse = 0
	if cap(s.edgeTo) < n {
		s.edgeTo = make([]int64, n)
		s.succPos = make([]int32, n)
		s.predPos = make([]int32, n)
	}
	s.edgeTo = s.edgeTo[:n]
	s.succPos = s.succPos[:n]
	s.predPos = s.predPos[:n]
}

// regSlot returns the builder state of register r for the current epoch,
// growing the class table on demand (virtual register numbers are dense
// but unbounded).
func (s *Scratch) regSlot(r ir.Reg) *regEntry {
	t := &s.regs[r.Class&3]
	n := int(r.N)
	if n >= len(*t) {
		*t = append(*t, make([]regEntry, n+1-len(*t))...)
	}
	e := &(*t)[n]
	if e.epoch != s.epoch {
		e.epoch = s.epoch
		e.def, e.use = -1, -1
	}
	return e
}

// edge inserts from→to into d, deduplicating with max-latency semantics in
// O(1). All builder edges target the instruction currently being built
// (to only grows), so a single stamped cell per source detects repeats.
func (s *Scratch) edge(d *DAG, from, to, lat int) {
	if from == to {
		return
	}
	stamp := int64(s.epoch)<<32 | int64(uint32(to))
	if s.edgeTo[from] == stamp {
		se := &d.Succ[from][s.succPos[from]]
		if se.Latency < lat {
			se.Latency = lat
			d.Pred[to][s.predPos[from]].Latency = lat
		}
		return
	}
	s.edgeTo[from] = stamp
	s.succPos[from] = int32(len(d.Succ[from]))
	s.predPos[from] = int32(len(d.Pred[to]))
	d.Succ[from] = append(d.Succ[from], Edge{To: to, Latency: lat})
	d.Pred[to] = append(d.Pred[to], Edge{To: from, Latency: lat})
	d.nEdges++
}

// newUseSlot hands out the next reusable last-uses list, truncated.
func (s *Scratch) newUseSlot() int {
	if s.nUse < len(s.useLists) {
		s.useLists[s.nUse] = s.useLists[s.nUse][:0]
	} else {
		s.useLists = append(s.useLists, nil)
	}
	s.nUse++
	return s.nUse - 1
}

// growInts resizes *buf to length n, reusing its backing array. Contents
// are unspecified; callers overwrite every element they read.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growBools resizes *buf to length n and clears it.
func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	b := *buf
	for i := range b {
		b[i] = false
	}
	return b
}

// reset prepares the DAG to describe an n-instruction block, reusing the
// adjacency storage from previous blocks. Edge dedupe state lives on the
// Scratch, so a pooled DAG retains nothing but slice capacity between
// blocks.
func (d *DAG) reset(n int) {
	d.N = n
	d.nEdges = 0
	if cap(d.Succ) < n {
		d.Succ = append(d.Succ[:cap(d.Succ)], make([][]Edge, n-cap(d.Succ))...)
	}
	if cap(d.Pred) < n {
		d.Pred = append(d.Pred[:cap(d.Pred)], make([][]Edge, n-cap(d.Pred))...)
	}
	d.Succ = d.Succ[:n]
	d.Pred = d.Pred[:n]
	for i := 0; i < n; i++ {
		d.Succ[i] = d.Succ[i][:0]
		d.Pred[i] = d.Pred[i][:0]
	}
}
