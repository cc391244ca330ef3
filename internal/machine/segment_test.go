package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"schedfilter/internal/ir"
)

// wideLatencyModel returns a model whose floating-point divide takes
// longer than a memo key byte holds: segments with the divide bypass the
// memo, and so do entry states still waiting on one.
func wideLatencyModel() *Model {
	m := NewMPC7410()
	m.Name = "wide-latency"
	m.Timing[ir.FDIV].Latency = 300
	return m
}

// segmentModels are the models the segment tests issue on: every target
// and wideLatencyModel.
func segmentModels() []*Model {
	var ms []*Model
	for _, tg := range All() {
		ms = append(ms, tg.Model)
	}
	return append(ms, wideLatencyModel())
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
// above the cycle, and the two integer units tied or in either order.
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
		s.unitFree[IU2] = s.unitFree[IU1]
	case 1:
		// Both below the cycle, in a random order.
		s.unitFree[IU1], s.unitFree[IU2] = max(0, c-1-r.Intn(4)), max(0, c-1-r.Intn(4))
	}
	ready := s.slots()
	for i := range ready {
		ready[i] = near(r, c, maxRel)
	}
	s.makespan = c + r.Intn(maxRel+1)
}

// twinEntry sets t to a state with a different raw form but the same
// memo key as s, for any segment: the cycle moves, every value above the
// cycle moves with it, and every value at or below it is redrawn at or
// below the new cycle, keeping the order of IU1 and IU2.
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
	if a, b := s.unitFree[IU1], s.unitFree[IU2]; a <= c && b <= c {
		lo, hi := c2-5+r.Intn(3), c2-r.Intn(3)
		switch {
		case a < b:
			t.unitFree[IU1], t.unitFree[IU2] = lo, hi
		case a > b:
			t.unitFree[IU1], t.unitFree[IU2] = hi, lo
		default:
			t.unitFree[IU1], t.unitFree[IU2] = hi, hi
		}
	}
	src, dst := s.slots(), t.slots()
	for i, v := range src {
		dst[i] = move(v)
	}
	t.makespan = c2 + r.Intn(maxLatency(s.m)+1)
}

// stateDiff describes the first difference between two states' pipeline
// timing (cycle, slot counts, makespan, units, every ready slot), or
// returns "" when they agree.
func stateDiff(got, want *IssueState) string {
	switch {
	case got.cycle != want.cycle:
		return fmt.Sprintf("cycle %d, want %d", got.cycle, want.cycle)
	case got.nonBranch != want.nonBranch || got.branch != want.branch:
		return fmt.Sprintf("slots %d+%d, want %d+%d", got.nonBranch, got.branch, want.nonBranch, want.branch)
	case got.makespan != want.makespan:
		return fmt.Sprintf("makespan %d, want %d", got.makespan, want.makespan)
	case got.unitFree != want.unitFree:
		return fmt.Sprintf("units %v, want %v", got.unitFree, want.unitFree)
	}
	g, w := got.slots(), want.slots()
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("ready slot %d: %d, want %d", i, g[i], w[i])
		}
	}
	return ""
}

// checkSegments decodes segs into one state and issues each from random
// entry states, comparing the whole state after IssueSegment with the
// same records issued one at a time by IssueDecoded. Each segment is
// issued from several independent random states, whose keys collide
// often, and from a twin of the first: a different raw state with the
// same key, which must replay the first's stored outcome.
func checkSegments(t testing.TB, r *rand.Rand, m *Model, segs [][]ir.Instr) {
	t.Helper()
	s := NewIssueState(m)
	hs := make([]Segment, len(segs))
	for i, seg := range segs {
		hs[i] = s.DecodeSegment(seg)
	}
	issue := func(h Segment, label string) {
		t.Helper()
		want := s.Clone()
		g := &s.segs[h]
		for i := g.first; i < g.end; i++ {
			want.IssueDecoded(&want.recs[i])
		}
		s.IssueSegment(h)
		if d := stateDiff(s, want); d != "" {
			t.Fatalf("%s: segment %d (%v), %s issue: %s", m.Name, h, segs[h], label, d)
		}
	}
	twin := NewIssueState(m)
	twin.ready = make([]int, len(s.slots()))
	for _, h := range hs {
		g := &s.segs[h]
		for k := range 4 {
			randomEntry(r, s)
			if k > 0 {
				issue(h, "random")
				continue
			}
			twinEntry(r, s, twin)
			stored := g.n
			issue(h, "first")
			if g.n == stored {
				continue // bypassed (or the memo already had the key)
			}
			s.cycle, s.nonBranch, s.branch, s.makespan = twin.cycle, twin.nonBranch, twin.branch, twin.makespan
			s.unitFree = twin.unitFree
			copy(s.slots(), twin.slots())
			issue(h, "twin")
			if g.n != stored+1 {
				t.Fatalf("%s: segment %d (%v): twin state missed the memo", m.Name, h, segs[h])
			}
		}
	}
}

// TestIssueSegmentMatchesDecoded is the differential test for memoized
// segment timing over blockgen programs on every target and on a model
// whose latency exceeds the key range.
func TestIssueSegmentMatchesDecoded(t *testing.T) {
	for _, m := range segmentModels() {
		for seed := int64(0); seed < 150; seed++ {
			r := rand.New(rand.NewSource(seed))
			checkSegments(t, r, m, cutSegments(r, diffProgram(seed)))
		}
	}
}

// TestIssueSegmentMemoBounded checks that a segment's memo stops growing
// at its cap and that misses past it are still issued correctly.
func TestIssueSegmentMemoBounded(t *testing.T) {
	m := NewMPC7410()
	s := NewIssueState(m)
	h := s.DecodeSegment([]ir.Instr{
		{Op: ir.ADD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4), ir.GPR(5)}},
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(1)}, Uses: []ir.Reg{ir.FPR(2), ir.FPR(3)}},
	})
	r := rand.New(rand.NewSource(1))
	for range 200 {
		randomEntry(r, s)
		want := s.Clone()
		g := &s.segs[h]
		for i := g.first; i < g.end; i++ {
			want.IssueDecoded(&want.recs[i])
		}
		s.IssueSegment(h)
		if d := stateDiff(s, want); d != "" {
			t.Fatal(d)
		}
	}
	if g := &s.segs[h]; g.n != segMemoCap {
		t.Errorf("memo holds %d entries, want the cap %d", g.n, segMemoCap)
	}
}

// FuzzIssueSegment runs the differential check on a fuzzed blockgen
// program, cut into fuzzed segments, issued from fuzzed entry states on
// a fuzzed model.
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
