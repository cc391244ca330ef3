package machine

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"schedfilter/internal/ir"
)

// wideLatencyModel returns a model whose floating-point divide is far
// longer than any target's, so that normalized states hold large offsets,
// and whose taken-branch bubble is longer too.
func wideLatencyModel() *Model {
	m := newMPC7410()
	m.Name = "wide-latency"
	m.Timing[ir.FDIV].Latency = 300
	m.TakenBranchBubble = 3
	return m
}

// zeroLatencyModel returns a model, one Validate refuses, whose simple
// integer ops finish in the cycle they issue and hold their unit for it,
// and whose taken transfers cost no bubble: IssueSegment must still match
// issuing one record at a time.
func zeroLatencyModel() *Model {
	m := newMPC7410()
	m.Name = "zero-latency"
	m.TakenBranchBubble = 0
	for _, op := range []ir.Op{ir.ADD, ir.ADDI, ir.LI, ir.SUB, ir.MR} {
		m.Timing[op] = OpTiming{Latency: 0}
	}
	return m
}

// segmentModels are the models the segment tests issue on: every target,
// wideLatencyModel and zeroLatencyModel.
func segmentModels() []*Model {
	var ms []*Model
	for _, tg := range All() {
		ms = append(ms, tg.Model)
	}
	return append(ms, wideLatencyModel(), zeroLatencyModel())
}

// cutSegments cuts blocks into straight-line runs: at every control
// instruction, as the simulator does, and at random points in between,
// so that short segments whose keys collide often are common.
func cutSegments(r *rand.Rand, blocks [][]ir.Instr) [][]ir.Instr {
	var segs [][]ir.Instr
	for _, b := range blocks {
		for start := 0; start < len(b); {
			end := min(len(b), start+1+r.Intn(6))
			if i := slices.IndexFunc(b[start:end], func(in ir.Instr) bool { return in.Op.IsBranchOp() }); i >= 0 {
				end = start + i + 1
			}
			segs = append(segs, b[start:end])
			start = end
		}
	}
	return segs
}

// maxLatency is the model's largest latency.
func maxLatency(m *Model) int {
	l := 0
	for _, t := range m.Timing {
		l = max(l, t.Latency)
	}
	return l
}

// near returns a value below, at or above c: below by up to 5 (not under
// 0), or above by up to maxRel.
func near(r *rand.Rand, c, maxRel int) int {
	switch r.Intn(3) {
	case 0:
		return max(0, c-1-r.Intn(5))
	case 1:
		return c
	}
	return c + 1 + r.Intn(maxRel)
}

// randomEntry sets s to a random pipeline state around a random cycle:
// slot counts from empty to full, unit and ready times below, at and
// above the cycle, and the two integer units tied or in either order. It
// writes the raw state, so it drops the chain position.
func randomEntry(r *rand.Rand, s *IssueState) {
	m := s.m
	maxRel := maxLatency(m)
	c := r.Intn(30)
	s.cycle = c
	s.nonBranch = r.Intn(m.IssueWidth + 1)
	s.branch = r.Intn(m.BranchPerCycle + 1)
	for u := range s.unitFree {
		s.unitFree[u] = near(r, c, maxRel)
	}
	switch r.Intn(4) {
	case 0:
		s.unitFree[iu2] = s.unitFree[iu1]
	case 1:
		// Both below the cycle, in a random order.
		s.unitFree[iu1], s.unitFree[iu2] = max(0, c-1-r.Intn(4)), max(0, c-1-r.Intn(4))
	}
	ready := s.slots()
	for i := range ready {
		ready[i] = near(r, c, maxRel)
	}
	s.makespan = c + r.Intn(maxRel+1)
	if s.chain != nil {
		s.chain.at = -1
	}
}

// twinEntry sets t to a state with a different raw form but the same
// normalized form as s: the cycle moves, every value above the cycle
// moves with it, and every value at or below it is redrawn at or below
// the new cycle, keeping the order of IU1 and IU2. It drops t's chain
// position.
func twinEntry(r *rand.Rand, s, t *IssueState) {
	c := s.cycle
	c2 := 6 + r.Intn(40)
	move := func(v int) int {
		if v > c {
			return v - c + c2
		}
		return c2 - r.Intn(6)
	}
	t.cycle, t.nonBranch, t.branch = c2, s.nonBranch, s.branch
	for u, v := range s.unitFree {
		t.unitFree[u] = move(v)
	}
	if a, b := s.unitFree[iu1], s.unitFree[iu2]; a <= c && b <= c {
		lo, hi := c2-5+r.Intn(3), c2-r.Intn(3)
		switch {
		case a < b:
			t.unitFree[iu1], t.unitFree[iu2] = lo, hi
		case a > b:
			t.unitFree[iu1], t.unitFree[iu2] = hi, lo
		default:
			t.unitFree[iu1], t.unitFree[iu2] = hi, hi
		}
	}
	src, dst := s.slots(), t.slots()
	for i, v := range src {
		dst[i] = move(v)
	}
	t.makespan = c2 + r.Intn(maxLatency(s.m)+1)
	if t.chain != nil {
		t.chain.at = -1
	}
}

// clone returns an independent copy of s's timing state, materialized
// when s is at a chain node, with no chained memo of its own. The copy
// issues records s decoded through IssueDecoded.
func clone(s *IssueState) *IssueState {
	c := *s
	c.ready = slices.Clone(s.ready)
	c.virt = maps.Clone(s.virt)
	c.operands = slices.Clip(s.operands)
	if ch := s.chain; ch != nil && ch.at >= 0 {
		c.materialize(ch.nodes[ch.at])
	}
	c.chain = nil
	return &c
}

// stateDiff materializes got, a state that issues segments, and describes
// the first difference between its pipeline timing and want's, a state
// issued one record at a time; it returns "" when they agree. The cycle,
// the slot counts and the makespan must be equal; unit and ready times
// only under max(v, cycle), where the issue rules cannot tell them apart,
// and the two integer units in the same order.
func stateDiff(got, want *IssueState) string {
	if ch := got.chain; ch != nil && ch.at >= 0 {
		got.materialize(ch.nodes[ch.at])
	}
	c := want.cycle
	switch gu, wu := got.unitFree, want.unitFree; {
	case got.cycle != c:
		return fmt.Sprintf("cycle %d, want %d", got.cycle, c)
	case got.nonBranch != want.nonBranch || got.branch != want.branch:
		return fmt.Sprintf("slots %d+%d, want %d+%d", got.nonBranch, got.branch, want.nonBranch, want.branch)
	case got.makespan != want.makespan:
		return fmt.Sprintf("makespan %d, want %d", got.makespan, want.makespan)
	case cmp.Compare(gu[iu1], gu[iu2]) != cmp.Compare(wu[iu1], wu[iu2]):
		return fmt.Sprintf("IU1/IU2 %d/%d, want the order of %d/%d", gu[iu1], gu[iu2], wu[iu1], wu[iu2])
	}
	for u := range got.unitFree {
		if g, w := max(got.unitFree[u], c), max(want.unitFree[u], c); g != w {
			return fmt.Sprintf("unit %v free at %d, want %d", Unit(u), g, w)
		}
	}
	g, w := got.slots(), want.slots()
	for i := range g {
		if max(g[i], c) != max(w[i], c) {
			return fmt.Sprintf("ready slot %d: %d, want %d", i, max(g[i], c), max(w[i], c))
		}
	}
	return ""
}

// issueOne charges a taken transfer's bubble to want, then issues segment
// h of s's chain on it one record at a time.
func issueOne(s, want *IssueState, taken bool, h Segment) {
	if taken {
		want.advance(want.m.TakenBranchBubble)
	}
	g := s.chain.spans[h]
	for i := g.first; i < g.end; i++ {
		want.IssueDecoded(&s.chain.recs[i])
	}
}

// randomTaken reports a taken transfer one time in three.
func randomTaken(r *rand.Rand) bool { return r.Intn(3) == 0 }

// checkSegments decodes segs into one state and checks IssueSegment
// against the same records issued one at a time by IssueDecoded, in two
// ways. First, each segment is issued, after a bubble or none, from
// several independent random entry states, and from a twin of the first:
// a different raw state with the same normalized form, which must follow
// the edge the first added. Then checkSequence runs sequences of
// transitions.
func checkSegments(t testing.TB, r *rand.Rand, m *Model, segs [][]ir.Instr) {
	t.Helper()
	s := NewIssueState(m)
	hs := make([]Segment, len(segs))
	for i, seg := range segs {
		hs[i] = s.DecodeSegment(seg)
	}
	issue := func(taken bool, h Segment, label string) {
		t.Helper()
		want := clone(s)
		issueOne(s, want, taken, h)
		s.IssueSegment(h, taken)
		if d := stateDiff(s, want); d != "" {
			t.Fatalf("%s: taken %v, segment %d (%v), %s issue: %s", m.Name, taken, h, segs[h], label, d)
		}
	}
	twin := NewIssueState(m)
	twin.ready = make([]int, len(s.slots()))
	for _, h := range hs {
		for k := range 4 {
			randomEntry(r, s)
			taken := randomTaken(r)
			if k > 0 {
				issue(taken, h, "random")
				continue
			}
			twinEntry(r, s, twin)
			issue(taken, h, "first")
			_, edges, _ := s.ChainSize()
			s.cycle, s.nonBranch, s.branch, s.makespan = twin.cycle, twin.nonBranch, twin.branch, twin.makespan
			s.unitFree = twin.unitFree
			copy(s.slots(), twin.slots())
			s.chain.at = -1
			issue(taken, h, "twin")
			if _, now, _ := s.ChainSize(); now != edges {
				t.Fatalf("%s: segment %d (%v): twin state added an edge", m.Name, h, segs[h])
			}
		}
	}
	checkSequence(t, r, m, segs)
}

// step is one transition: a taken transfer's bubble or none, then a
// segment.
type step struct {
	taken bool
	seg   Segment
}

// checkSequence decodes segs into a fresh state and runs 300 transitions
// that mostly repeat a short cycle, so that the chain is followed far more
// often than it grows, with random and cold entry states dropped in, and
// compares the state after every step with a twin issued by IssueDecoded. Half the cycles are hub cycles: one segment
// entered from up to eight others in turn, more entry states than a
// segment's inline edge set holds, so that ways are evicted and found
// again in the map.
func checkSequence(t testing.TB, r *rand.Rand, m *Model, segs [][]ir.Instr) {
	t.Helper()
	s := NewIssueState(m)
	for _, seg := range segs {
		s.DecodeSegment(seg)
	}
	want := clone(s)
	random := func() step { return step{randomTaken(r), Segment(r.Intn(len(segs)))} }
	var cycle []step
	if r.Intn(2) == 0 {
		cycle = make([]step, 1+r.Intn(8))
		for i := range cycle {
			cycle[i] = random()
		}
	} else {
		hub := Segment(r.Intn(len(segs)))
		for range 1 + r.Intn(2*ways) {
			cycle = append(cycle, random(), step{randomTaken(r), hub})
		}
	}
	var done []step
	for i := range 300 {
		x := cycle[i%len(cycle)]
		switch r.Intn(16) {
		case 0:
			x = random()
		case 1:
			randomEntry(r, s)
			want = clone(s)
			done = done[:0]
		case 2:
			// A cold pipeline: the state a run starts from, whose node
			// the chain interns first.
			s.cycle, s.nonBranch, s.branch, s.makespan, s.unitFree = 0, 0, 0, 0, [numUnits]int{}
			clear(s.slots())
			s.chain.at = -1
			want = clone(s)
			done = done[:0]
		}
		issueOne(s, want, x.taken, x.seg)
		s.IssueSegment(x.seg, x.taken)
		done = append(done, x)
		if d := stateDiff(s, want); d != "" {
			t.Fatalf("%s: after transitions %v ({taken segment}): %s", m.Name, done, d)
		}
	}
}

// TestIssueSegmentMatchesDecoded is the differential test for chained
// segment timing over blockgen programs on every target and on models
// with a long latency and with zero latencies.
func TestIssueSegmentMatchesDecoded(t *testing.T) {
	for _, m := range segmentModels() {
		for seed := int64(0); seed < 150; seed++ {
			r := rand.New(rand.NewSource(seed))
			checkSegments(t, r, m, cutSegments(r, diffProgram(seed)))
		}
	}
}

// TestIssueSegmentMemoBounded checks that the chained memo stops adding
// nodes at its cap and that transitions past it are still issued
// correctly.
func TestIssueSegmentMemoBounded(t *testing.T) {
	m := newMPC7410()
	s := NewIssueState(m)
	h := s.DecodeSegment([]ir.Instr{
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}},
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(1)}, Uses: []ir.Reg{ir.FPR(2), ir.FPR(3)}},
	})
	r := rand.New(rand.NewSource(1))
	for range nodeCap {
		// Random entry states are nearly all distinct: each adds a node,
		// and so does the state the segment leaves.
		randomEntry(r, s)
		want := clone(s)
		issueOne(s, want, false, h)
		s.IssueSegment(h, false)
		if d := stateDiff(s, want); d != "" {
			t.Fatal(d)
		}
	}
	if nodes, _, _ := s.ChainSize(); nodes != nodeCap {
		t.Errorf("chain holds %d nodes, want the cap %d", nodes, nodeCap)
	}
}

// TestIssueSegmentInlineOverflow enters one segment from twice as many
// entry states as its inline edge set holds, in turn, so that every entry
// misses the set and is found in the map: the issue must stay exact and
// the chain must stop growing after the first round.
func TestIssueSegmentInlineOverflow(t *testing.T) {
	m := newMPC7410()
	s := NewIssueState(m)
	hub := s.DecodeSegment([]ir.Instr{{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(20)}, Uses: []ir.Reg{ir.GPR(21), ir.GPR(22)}}})
	var steps []step
	for i := range 2 * ways {
		// A load into a different register each time leaves a
		// different node behind it.
		pre := s.DecodeSegment([]ir.Instr{{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3 + i)}, Uses: []ir.Reg{ir.GPR(1)}}})
		steps = append(steps, step{true, pre}, step{i%2 == 0, hub})
	}
	want := clone(s)
	var edges int
	for round := range 4 {
		for _, x := range steps {
			issueOne(s, want, x.taken, x.seg)
			s.IssueSegment(x.seg, x.taken)
			if d := stateDiff(s, want); d != "" {
				t.Fatalf("round %d, %v: %s", round, x, d)
			}
		}
		_, n, entries := s.ChainSize()
		if entries < 2*ways {
			t.Fatalf("hub entered from %d (node, bubble) pairs, want at least %d", entries, 2*ways)
		}
		if round > 1 && n != edges {
			t.Fatalf("round %d added %d edges to a repeating run", round, n-edges)
		}
		edges = n
	}
}

// TestIssueSegmentEmptyWays reaches a node through an edge, then issues
// a segment whose inline set is still empty from it: an empty segment
// leaves a cold pipeline at the cold node, the first the chain interns,
// and the empty ways must not pass for edges from it.
func TestIssueSegmentEmptyWays(t *testing.T) {
	s := NewIssueState(newMPC7410())
	empty := s.DecodeSegment(nil)
	add := s.DecodeSegment([]ir.Instr{{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}}})
	want := clone(s)
	for _, x := range []step{{false, empty}, {false, empty}, {false, add}} {
		issueOne(s, want, x.taken, x.seg)
		s.IssueSegment(x.seg, x.taken)
		if d := stateDiff(s, want); d != "" {
			t.Fatalf("%v: %s", x, d)
		}
	}
}

// FuzzIssueSegment runs the differential check, single segments and
// sequences, on a fuzzed blockgen program, cut into fuzzed segments,
// issued from fuzzed entry states on a fuzzed model.
func FuzzIssueSegment(f *testing.F) {
	for seed := range 8 {
		f.Add(uint64(seed), uint8(seed))
	}
	f.Add(uint64(1<<40+3), uint8(5))
	models := segmentModels()
	f.Fuzz(func(t *testing.T, seed uint64, model uint8) {
		r := rand.New(rand.NewSource(int64(seed)))
		m := models[int(model)%len(models)]
		checkSegments(t, r, m, cutSegments(r, diffProgram(int64(seed%1000))))
	})
}
