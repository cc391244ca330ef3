package machine

import (
	"cmp"
	"encoding/binary"

	"schedfilter/internal/ir"
)

// Chained segment timing (after FastSim, Schnarr & Larus, ASPLOS 1998).
// The whole-program simulator issues code in straight-line segments, from
// a block entry or a call's return point through the next control
// instruction, with a bubble (AdvanceTo) between some of them, and the
// whole pipeline state takes only a few dozen distinct shapes over a run.
// A state that issues segments therefore keeps one chained memo for the
// run: a graph whose nodes are whole timing states normalized to their
// issue cycle C, and whose edges are the transitions (a segment, or a
// bubble of b cycles) taken from them.
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
// so do two states taking the same bubble. An edge stores the cycle
// advance, the latest completion relative to C and the next node. A
// segment lists the edges that issued it, one per entry node, and a node
// lists the bubbles taken from it; each list remembers the edge it gave
// last, which is nearly always the next one asked for. While the run
// follows known edges only the cycle and the makespan move; the unit and
// register times are materialized from the node, at the current cycle,
// only when an edge is missing.

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

// chain is the decoded segments and the chained memo of a state that
// issues segments.
type chain struct {
	// recs backs every segment's records; segs holds the record ranges
	// DecodeSegment returned handles to.
	recs []Decoded
	segs []segment
	// at is the node the state is at: its unit and register times are
	// those the node materializes at the current cycle, while the raw
	// fields are stale. At -1 the raw fields hold the state.
	at int32
	// closed is set when a record with a latency below one is decoded;
	// no node is interned after that.
	closed bool
	nodes  []node
	edges  []edge
	ids    map[string]int32
	// key is scratch for a normalized state.
	key []byte
}

// segment is one decoded segment: its records recs[first:end] and the
// edges that issued it.
type segment struct {
	first, end int32
	out        edgeList
}

// node is one interned normalized state (see intern for the encoding) and
// the bubbles taken from it.
type node struct {
	key     string
	bubbles edgeList
}

// edgeList is a list of edges linked by edge.sib from first, and the edge
// the list gave most recently; both are -1 while it is empty.
type edgeList struct{ first, last int32 }

// edge is a transition taken from a node.
type edge struct {
	// on is the segment handle, or -b for a bubble of b cycles.
	on   int
	from int32
	next int32
	// delta is the cycle advance and latest the latest completion, both
	// relative to the cycle the transition starts at.
	delta, latest int
	sib           int32
}

// DecodeSegment decodes ins, a straight-line run of instructions in issue
// order, for IssueSegment. As with Decode, the model's timing is read now.
func (s *IssueState) DecodeSegment(ins []ir.Instr) Segment {
	if s.chain == nil {
		s.chain = &chain{at: -1, ids: map[string]int32{}}
	}
	ch := s.chain
	g := segment{first: int32(len(ch.recs)), out: edgeList{-1, -1}}
	for i := range ins {
		d := s.Decode(&ins[i])
		ch.closed = ch.closed || d.class.latency < 1
		ch.recs = append(ch.recs, d)
	}
	g.end = int32(len(ch.recs))
	ch.segs = append(ch.segs, g)
	return Segment(len(ch.segs) - 1)
}

// ChainSize returns the number of nodes and edges in the state's chained
// memo.
func (s *IssueState) ChainSize() (nodes, edges int) {
	if s.chain == nil {
		return 0, 0
	}
	return len(s.chain.nodes), len(s.chain.edges)
}

// IssueSegment issues the segment's instructions in order, with the same
// cycle and makespan as calling IssueDecoded on each, following the
// chained memo when the transition from the current state is known.
func (s *IssueState) IssueSegment(h Segment) {
	if !s.follow(int(h)) {
		s.take(int(h))
	}
}

// follow takes the known edge for transition on from the current node
// and reports whether there was one.
func (s *IssueState) follow(on int) bool {
	ch := s.chain
	at := ch.at
	if at < 0 {
		return false
	}
	l := ch.list(at, on)
	e := l.last
	if e < 0 || ch.edges[e].from != at || ch.edges[e].on != on {
		if e = ch.find(l, at, on); e < 0 {
			return false
		}
		l.last = e
	}
	x := &ch.edges[e]
	s.makespan = max(s.makespan, s.cycle+x.latest)
	s.cycle += x.delta
	ch.at = x.next
	return true
}

// list returns the list that holds the edge for transition on from node
// at, if there is one.
func (ch *chain) list(at int32, on int) *edgeList {
	if on >= 0 {
		return &ch.segs[on].out
	}
	return &ch.nodes[at].bubbles
}

// find returns l's edge for transition on from node at, or -1.
func (ch *chain) find(l *edgeList, at int32, on int) int32 {
	e := l.first
	for e >= 0 && (ch.edges[e].from != at || ch.edges[e].on != on) {
		e = ch.edges[e].sib
	}
	return e
}

// take makes transition on (see edge.on) when follow could not: it
// materializes the current node, or interns the raw state, issues the
// transition from the raw state, and records the edge while the node cap
// allows.
func (s *IssueState) take(on int) {
	ch := s.chain
	from := ch.at
	if from >= 0 {
		s.materialize(ch.nodes[from].key)
	} else if len(ch.nodes) < nodeCap && !ch.closed {
		// The raw state may be a known node with a known edge.
		if ch.at = s.intern(); s.follow(on) {
			return
		}
		from = ch.at
	}
	c := s.cycle
	var latest int
	if on >= 0 {
		latest = s.issueRecs(ch.segs[on])
	} else {
		latest = c - on
		s.cycle, s.nonBranch, s.branch = latest, 0, 0
		s.makespan = max(s.makespan, latest)
	}
	ch.at = -1
	if from < 0 || ch.closed {
		return
	}
	to := s.intern()
	if to < 0 {
		return
	}
	l := ch.list(from, on)
	ch.edges = append(ch.edges, edge{on: on, from: from, next: to, delta: s.cycle - c, latest: latest - c, sib: l.first})
	l.first = int32(len(ch.edges) - 1)
	l.last = l.first
	ch.at = to
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
	k = append(k, byte(1+cmp.Compare(s.unitFree[IU1], s.unitFree[IU2])))
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
	ch.nodes = append(ch.nodes, node{key: key, bubbles: edgeList{-1, -1}})
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
	if s.unitFree[IU1] == c && s.unitFree[IU2] == c {
		switch order {
		case 0:
			s.unitFree[IU1] = c - 1
		case 2:
			s.unitFree[IU2] = c - 1
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
func (s *IssueState) issueRecs(g segment) int {
	latest := 0
	for i := g.first; i < g.end; i++ {
		_, done := s.issue(&s.chain.recs[i])
		latest = max(latest, done)
	}
	return latest
}
