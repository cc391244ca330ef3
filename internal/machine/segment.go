package machine

import (
	"cmp"
	"encoding/binary"

	"schedfilter/internal/ir"
)

// Chained segment timing (after FastSim, Schnarr & Larus, ASPLOS 1998).
// The whole-program simulator issues code in straight-line segments, from
// a block entry or a call's return point through the next control
// instruction, each entered after the model's taken-branch bubble or
// without one, and the whole pipeline state takes only a few dozen
// distinct shapes over a run. A state that issues segments therefore
// keeps one chained memo for the run: a graph whose nodes are whole
// timing states normalized to their issue cycle C, and whose edges are
// the transitions taken from them: a bubble or none, then a segment.
//
// A node holds the entry slot counts, the three-way order of IU1 against
// IU2, max(0, v−C) for each unit and (slot, v−C) for each register slot
// whose ready time v is above C. It determines everything the issue rules
// can observe, because of how they read the state:
//   - issue never starts before C, so a ready time or unit time at or
//     below C acts only through max(v, t) with t ≥ C, exactly as C does;
//   - a register is written as max(old, done) with done > C (every latency
//     is at least one cycle, which Validate requires), so its new value
//     depends on old only when old > C, where the node holds it exactly;
//   - a unit is written as t+1 or t+latency, above C;
//   - the IU1/IU2 pick is the one place two unit times are compared with
//     each other, which may happen with both at or below C: the node
//     keeps their order;
//   - the slot counts decide whether an instruction fits in cycle C.
//
// Two states with the same node thus issue every instruction of a segment
// at the same offset from C, on the same unit, and reach the same node;
// a bubble of b cycles moves both to C+b with empty slots, the same node
// again. An edge stores the cycle advance, the latest completion relative
// to C and the next node. Every edge is kept in one map keyed by
// (segment, entry node, bubble or none), and the few that issued a
// segment most recently are copied into a small set inline in the
// segment, which the hit path scans without a call. While the run follows
// known edges only the cycle and the makespan move; the unit and register
// times are materialized from the node, at the current cycle, only when
// an edge is missing.

// Segment is a handle to a straight-line run of instructions decoded by
// DecodeSegment. Like a Decoded record, it is only meaningful to the state
// that decoded it, until that state is Reset.
type Segment int32

// nodeCap bounds the nodes one state interns. Past it, a transition that
// leaves the known nodes is issued one instruction at a time, and so is
// every later one. The same holds once a state decodes a record whose
// latency is below one cycle, which Validate refuses: a write at its own
// issue cycle breaks the argument above.
const nodeCap = 4096

// ways is the size of a segment's inline edge set. Over every target and
// bundled program, unscheduled and list-scheduled, a segment is entered
// from at most six (node, bubble) pairs and nearly always from one of the
// last four (TestChainBounded); a segment entered from more finds the
// others in the map.
const ways = 4

// vacant is the key of an empty way: no state is at node nodeCap.
const vacant = nodeCap << 1

// chain is the decoded segments and the chained memo of a state that
// issues segments.
type chain struct {
	// recs backs every segment's records; spans and sets hold, per
	// handle DecodeSegment returned, the segment's record range and its
	// inline edge set.
	recs  []Decoded
	spans []span
	sets  []set
	// at is the node the state is at: its unit and register times are
	// those the node materializes at the current cycle, while the raw
	// fields are stale. At -1 the raw fields hold the state.
	at int32
	// bubble is the model's taken-branch bubble, read when the chain
	// was made.
	bubble int
	// closed is set when a record with a latency below one is decoded;
	// no node is interned after that.
	closed bool
	nodes  []string
	ids    map[string]int32
	edges  map[transition]edge
	// key is scratch for a normalized state.
	key []byte
}

// span is a segment's records, recs[first:end].
type span struct{ first, end int32 }

// set is a segment's inline edge set, one cache line: the edges that
// issued the segment most recently, newest first, under their keys (see
// wayKey). A way holds an edge whose advance and latest completion fit in
// 32 bits; any other edge is only in the map.
type set struct {
	keys          [ways]uint32
	next          [ways]int32
	delta, latest [ways]int32
}

// wayKey packs a transition's entry node and whether it starts with the
// bubble.
func wayKey(from int32, taken bool) uint32 {
	k := uint32(from) << 1
	if taken {
		k |= 1
	}
	return k
}

// transition names an edge in the chain's map.
type transition struct {
	seg   Segment
	from  int32
	taken bool
}

// edge is where a transition leads: delta is the cycle advance and latest
// the latest completion, both relative to the cycle the transition starts
// at, and next the node it reaches.
type edge struct {
	next          int32
	delta, latest int
}

// DecodeSegment decodes ins, a straight-line run of instructions in issue
// order, for IssueSegment. As with Decode, the model's timing is read now;
// the taken-branch bubble is read when the state first decodes a segment.
func (s *IssueState) DecodeSegment(ins []ir.Instr) Segment {
	if s.chain == nil {
		s.chain = &chain{at: -1, bubble: s.m.TakenBranchBubble, ids: map[string]int32{}, edges: map[transition]edge{}}
	}
	ch := s.chain
	g := span{first: int32(len(ch.recs))}
	for i := range ins {
		d := s.Decode(&ins[i])
		ch.closed = ch.closed || d.class.latency < 1
		ch.recs = append(ch.recs, d)
	}
	g.end = int32(len(ch.recs))
	ch.spans = append(ch.spans, g)
	ch.sets = append(ch.sets, set{keys: [ways]uint32{vacant, vacant, vacant, vacant}})
	return Segment(len(ch.spans) - 1)
}

// ChainSize returns the number of nodes and edges in the state's chained
// memo, and the largest number of distinct (entry node, bubble) pairs any
// one segment was issued from.
func (s *IssueState) ChainSize() (nodes, edges, entries int) {
	if s.chain == nil {
		return 0, 0, 0
	}
	per := make(map[Segment]int)
	for t := range s.chain.edges {
		per[t.seg]++
		entries = max(entries, per[t.seg])
	}
	return len(s.chain.nodes), len(s.chain.edges), entries
}

// IssueSegment issues the segment's instructions in order after a taken
// control transfer, which first charges the model's taken-branch bubble,
// or after none: the same cycle and makespan as moving the clock past the
// bubble and calling IssueDecoded on each record. It moves along the
// chained memo when the transition from the current state has been taken
// before.
func (s *IssueState) IssueSegment(h Segment, taken bool) {
	if !s.FollowSegment(h, taken) {
		s.take(h, taken)
	}
}

// FollowSegment is IssueSegment when the transition is in the segment's
// inline edge set, and otherwise does nothing; it reports which. It is
// small enough to inline, so a caller that issues many segments calls it
// and IssueSegment only when it reports false.
func (s *IssueState) FollowSegment(h Segment, taken bool) bool {
	ch := s.chain
	w := &ch.sets[h]
	k := uint32(ch.at) << 1 // wayKey, written out to stay inlinable
	if taken {
		k++
	}
	for i := range ways {
		if w.keys[i] == k {
			s.makespan = max(s.makespan, s.cycle+int(w.latest[i]))
			s.cycle += int(w.delta[i])
			ch.at = w.next[i]
			return true
		}
	}
	return false
}

// follow takes the edge for (h, taken) from node from, which the state is
// at, if the map holds one, and reports whether it did. The edge becomes
// the newest in the segment's inline set.
func (s *IssueState) follow(h Segment, from int32, taken bool) bool {
	ch := s.chain
	e, ok := ch.edges[transition{h, from, taken}]
	if !ok {
		return false
	}
	ch.sets[h].add(wayKey(from, taken), e)
	s.makespan = max(s.makespan, s.cycle+e.latest)
	s.cycle += e.delta
	ch.at = e.next
	return true
}

// add puts edge e under key k first in the set, dropping the oldest way,
// when e fits in a way.
func (w *set) add(k uint32, e edge) {
	if e.delta != int(int32(e.delta)) || e.latest != int(int32(e.latest)) {
		return
	}
	copy(w.keys[1:], w.keys[:ways-1])
	copy(w.next[1:], w.next[:ways-1])
	copy(w.delta[1:], w.delta[:ways-1])
	copy(w.latest[1:], w.latest[:ways-1])
	w.keys[0], w.next[0], w.delta[0], w.latest[0] = k, e.next, int32(e.delta), int32(e.latest)
}

// take makes the transition (h, taken) when the segment's inline set does
// not hold it: it follows the edge from the map when there is one;
// otherwise it materializes the current node, or interns the raw state,
// issues the bubble and the segment from the raw state, and records the
// edge while the node cap allows.
func (s *IssueState) take(h Segment, taken bool) {
	ch := s.chain
	from := ch.at
	switch {
	case from >= 0:
		if s.follow(h, from, taken) {
			return
		}
		s.materialize(ch.nodes[from])
	case len(ch.nodes) < nodeCap && !ch.closed:
		// The raw state may be a known node with a known edge.
		if from = s.intern(); s.follow(h, from, taken) {
			return
		}
	}
	c := s.cycle
	if taken {
		s.advance(ch.bubble)
	}
	start := s.cycle
	latest := max(start, s.issueRecs(ch.spans[h]))
	ch.at = -1
	if from < 0 || ch.closed {
		return
	}
	to := s.intern()
	if to < 0 {
		return
	}
	e := edge{next: to, delta: s.cycle - c, latest: latest - c}
	ch.edges[transition{h, from, taken}] = e
	ch.sets[h].add(wayKey(from, taken), e)
	ch.at = to
}

// advance charges a bubble of b cycles to the raw state: when b is
// positive the clock moves on by b, with every slot of the new cycle
// free.
func (s *IssueState) advance(b int) {
	if b > 0 {
		s.cycle, s.nonBranch, s.branch = s.cycle+b, 0, 0
		s.makespan = max(s.makespan, s.cycle)
	}
}

// intern returns the node of the raw state, adding it when it is new, or
// -1 when it is new and the state already holds nodeCap nodes. A node's
// key is a run of uvarints: the slot counts, the IU1/IU2 order, each
// unit's time above the cycle, then a (slot, time above the cycle) pair
// for each register slot ready after it.
func (s *IssueState) intern() int32 {
	ch, c := s.chain, s.cycle
	k := binary.AppendUvarint(ch.key[:0], uint64(s.nonBranch))
	k = binary.AppendUvarint(k, uint64(s.branch))
	k = append(k, byte(1+cmp.Compare(s.unitFree[iu1], s.unitFree[iu2])))
	for _, v := range s.unitFree {
		k = binary.AppendUvarint(k, uint64(max(0, v-c)))
	}
	for i, v := range s.slots() {
		if v > c {
			k = binary.AppendUvarint(k, uint64(i))
			k = binary.AppendUvarint(k, uint64(v-c))
		}
	}
	ch.key = k
	if id, ok := ch.ids[string(k)]; ok {
		return id
	}
	if len(ch.nodes) == nodeCap {
		return -1
	}
	id := int32(len(ch.nodes))
	key := string(k)
	ch.ids[key] = id
	ch.nodes = append(ch.nodes, key)
	return id
}

// materialize sets the raw state to the node with the given key at the
// current cycle C: register slots and units not in the key at or below C
// (the slots at 0), the rest at C plus their offset, and IU1 and IU2, when
// both are at C, in the key's order by putting the earlier one at C−1.
func (s *IssueState) materialize(node string) {
	c := s.cycle
	s.chain.key = append(s.chain.key[:0], node...)
	key := s.chain.key
	next := func() int {
		v, n := binary.Uvarint(key)
		key = key[n:]
		return int(v)
	}
	s.nonBranch = next()
	s.branch = next()
	order := key[0]
	key = key[1:]
	for u := range s.unitFree {
		s.unitFree[u] = c + next()
	}
	if s.unitFree[iu1] == c && s.unitFree[iu2] == c {
		switch order {
		case 0:
			s.unitFree[iu1] = c - 1
		case 2:
			s.unitFree[iu2] = c - 1
		}
	}
	ready := s.slots()
	clear(ready)
	for len(key) > 0 {
		i := next()
		ready[i] = c + next()
	}
}

// issueRecs issues the segment's records one at a time and returns the
// latest completion cycle among them.
func (s *IssueState) issueRecs(g span) int {
	latest := 0
	for i := g.first; i < g.end; i++ {
		_, done := s.issue(&s.chain.recs[i])
		latest = max(latest, done)
	}
	return latest
}
