package machine

import (
	"cmp"
	"slices"

	"schedfilter/internal/ir"
)

// Memoized segment timing (after FastSim's memoization, Schnarr & Larus,
// ASPLOS 1998). The whole-program simulator issues code in straight-line
// segments, from a block entry or a call's return point through the next
// control instruction, and the same few pipeline states recur at each
// segment's entry. A segment keeps a small memo of the outcomes it has
// produced, keyed by its entry state normalized to the entry issue cycle
// C, and replays a recorded outcome instead of issuing instruction by
// instruction.
//
// The key holds max(0, v−C) for every register slot the segment reads or
// writes and for every unit it may issue to, the three-way order of IU1
// against IU2 when the segment may take either, and the entry slot
// counts. It is exact because of how the issue rules read the state:
//   - issue never starts before C, so a ready time or unit time below C
//     acts only through max(v, t) with t ≥ C, exactly as C does;
//   - a register is written as max(old, done) with done > C, so its new
//     value depends on old only when old > C, where the key holds it
//     exactly;
//   - a unit is written as t+1 or t+latency, above C;
//   - the IU1/IU2 pick is the one place two unit times are compared with
//     each other, which may happen with both below C: the key keeps
//     their order;
//   - the slot counts decide whether an instruction fits in cycle C.
//
// Two entry states with the same key therefore issue every instruction at
// the same offset from C on the same unit, and the outcome is stored
// relative to C: the cycle advance, the exit slot counts, the latest
// completion and each unit and register the segment wrote. Every relative
// value is at most the largest latency issued so far, so one byte holds
// it; a segment whose latencies fall outside 1..maxKeyRel, and an entry
// state with a value that does not fit, bypass the memo and issue one
// instruction at a time.

// Segment is a handle to a straight-line run of instructions decoded by
// DecodeSegment. Like a Decoded record, it is only meaningful to the state
// that decoded it, until that state is Reset.
type Segment int32

const (
	// segMemoCap bounds a segment's memo; a miss past it is issued
	// without being stored.
	segMemoCap = 8
	// maxKeyRel is the largest relative value a key byte holds.
	maxKeyRel = 255
	// keyHead and outHead are the fixed-size prefixes of a key (slot
	// counts and the IU1/IU2 order) and of an outcome (cycle advance,
	// slot counts, latest completion and the mask of written units).
	keyHead = 3
	outHead = 5
)

// segment is one decoded segment and its memo.
type segment struct {
	// recs[first:end] are the segment's records.
	first, end int32
	// keySlots indexes operands: the distinct register slots the
	// segment writes (nDefs of them), then those it only reads.
	keySlots      int32
	nDefs, nSlots int32
	// units lists the units the segment may issue to (nUnits of them);
	// order is set when some record may take either integer unit.
	units  [NumUnits]Unit
	nUnits int32
	order  bool
	// memo is false when a latency falls outside the key's range.
	memo bool

	keyLen, outLen int32
	// n outcomes are stored: keys[e*keyLen:] and outs[e*outLen:] for
	// entry e. last is the entry that most recently matched.
	n, last int32
	keys    []byte
	outs    []int32
}

// DecodeSegment decodes ins, a straight-line run of instructions in issue
// order, for IssueSegment. As with Decode, the model's timing is read now.
func (s *IssueState) DecodeSegment(ins []ir.Instr) Segment {
	g := segment{first: int32(len(s.recs)), memo: true}
	var units [NumUnits]bool
	for i := range ins {
		s.recs = append(s.recs, s.Decode(&ins[i]))
	}
	// Gather the written slots, then the read ones, after the records'
	// operands; both lists end up deduplicated in place.
	base := len(s.operands)
	for _, d := range s.recs[g.first:] {
		s.operands = append(s.operands, s.regs(&d)[d.nUses:]...)
	}
	mid := len(s.operands)
	for _, d := range s.recs[g.first:] {
		s.operands = append(s.operands, s.regs(&d)[:d.nUses]...)
		c := &d.class
		for _, u := range c.units[:c.nUnits] {
			units[u] = true
		}
		g.order = g.order || c.nUnits == 2
		g.memo = g.memo && c.latency >= 1 && c.latency <= maxKeyRel
	}
	g.end = int32(len(s.recs))
	for u, used := range units {
		if used {
			g.units[g.nUnits] = Unit(u)
			g.nUnits++
		}
	}
	defs := s.operands[base:mid]
	slices.Sort(defs)
	defs = slices.Compact(defs)
	uses := s.operands[mid:]
	slices.Sort(uses)
	uses = slices.DeleteFunc(slices.Compact(uses), func(i int32) bool {
		_, written := slices.BinarySearch(defs, i)
		return written
	})
	s.operands = append(s.operands[:base+len(defs)], uses...)
	g.keySlots = int32(base)
	g.nDefs, g.nSlots = int32(len(defs)), int32(len(defs)+len(uses))
	g.keyLen = keyHead + g.nUnits + g.nSlots
	g.outLen = outHead + g.nUnits + g.nDefs
	if int(g.keyLen) > len(s.key) {
		s.key = make([]byte, g.keyLen)
	}
	s.segs = append(s.segs, g)
	return Segment(len(s.segs) - 1)
}

// IssueSegment issues the segment's instructions in order, with the same
// result as calling IssueDecoded on each, replaying a stored outcome when
// the normalized entry state has been seen before.
func (s *IssueState) IssueSegment(h Segment) {
	g := &s.segs[h]
	if !g.memo {
		s.issueRecs(g)
		return
	}
	c := s.cycle
	key := s.key[:g.keyLen]
	key[0], key[1], key[2] = byte(s.nonBranch), byte(s.branch), 0
	over := s.nonBranch | s.branch
	if g.order {
		key[2] = byte(1 + cmp.Compare(s.unitFree[IU1], s.unitFree[IU2]))
	}
	k := keyHead
	for _, u := range g.units[:g.nUnits] {
		r := max(0, s.unitFree[u]-c)
		over |= r
		key[k] = byte(r)
		k++
	}
	ready := s.slots()
	for _, i := range s.operands[g.keySlots : g.keySlots+g.nSlots] {
		r := max(0, ready[i]-c)
		over |= r
		key[k] = byte(r)
		k++
	}
	if over > maxKeyRel {
		s.issueRecs(g)
		return
	}
	if e := g.find(key); e >= 0 {
		s.replay(g, e, c)
		return
	}
	s.record(g, key, c)
}

// find returns the memo entry stored under key, or -1.
func (g *segment) find(key []byte) int32 {
	kl := g.keyLen
	if g.n > 0 && string(g.keys[g.last*kl:(g.last+1)*kl]) == string(key) {
		return g.last
	}
	for e := range g.n {
		if string(g.keys[e*kl:(e+1)*kl]) == string(key) {
			g.last = e
			return e
		}
	}
	return -1
}

// replay applies memo entry e to a state whose entry cycle is c.
func (s *IssueState) replay(g *segment, e int32, c int) {
	out := g.outs[e*g.outLen : (e+1)*g.outLen]
	s.cycle = c + int(out[0])
	s.nonBranch, s.branch = int(out[1]), int(out[2])
	s.makespan = max(s.makespan, c+int(out[3]))
	for j, u := range g.units[:g.nUnits] {
		if out[4]>>j&1 != 0 {
			s.unitFree[u] = c + int(out[outHead+j])
		}
	}
	ready := s.slots()
	defs := out[outHead+g.nUnits:]
	for j, i := range s.operands[g.keySlots : g.keySlots+g.nDefs] {
		ready[i] = c + int(defs[j])
	}
}

// record issues the segment from a state whose entry cycle is c and
// whose normalized key missed, storing the outcome under key while the
// memo has room.
func (s *IssueState) record(g *segment, key []byte, c int) {
	before := s.unitFree
	latest := s.issueRecs(g)
	if g.n == segMemoCap {
		return
	}
	if int(g.n*g.keyLen) == len(g.keys) {
		// Most segments see one or two entry states: the memo grows by
		// doubling, from one entry.
		size := min(max(2*g.n, 1), segMemoCap)
		keys, outs := carve(&s.keyArena, int(size*g.keyLen)), carve(&s.outArena, int(size*g.outLen))
		copy(keys, g.keys)
		copy(outs, g.outs)
		g.keys, g.outs = keys, outs
	}
	copy(g.keys[g.n*g.keyLen:], key)
	out := g.outs[g.n*g.outLen : (g.n+1)*g.outLen]
	out[0], out[1], out[2], out[3] = int32(s.cycle-c), int32(s.nonBranch), int32(s.branch), int32(latest-c)
	out[4] = 0
	for j, u := range g.units[:g.nUnits] {
		if s.unitFree[u] != before[u] {
			out[4] |= 1 << j
			out[outHead+j] = int32(s.unitFree[u] - c)
		}
	}
	ready := s.slots()
	defs := out[outHead+g.nUnits:]
	for j, i := range s.operands[g.keySlots : g.keySlots+g.nDefs] {
		defs[j] = int32(ready[i] - c)
	}
	g.last = g.n
	g.n++
}

// issueRecs issues the segment's records one at a time and returns the
// latest completion cycle among them.
func (s *IssueState) issueRecs(g *segment) int {
	latest := 0
	for i := g.first; i < g.end; i++ {
		_, done := s.issue(&s.recs[i])
		latest = max(latest, done)
	}
	return latest
}

// arenaChunk is the smallest chunk carve allocates, in elements.
const arenaChunk = 4096

// carve returns n elements from the arena, allocating a new chunk when
// the current one is short, so memo storage costs an allocation per
// chunk, not per segment.
func carve[T any](arena *[]T, n int) []T {
	if cap(*arena)-len(*arena) < n {
		*arena = make([]T, 0, max(n, arenaChunk))
	}
	a := *arena
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}
