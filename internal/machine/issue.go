package machine

import "schedfilter/internal/ir"

// IssueState models in-order issue onto the machine's functional units.
// Instructions are presented in their final program order; the state tracks,
// per cycle, how many issue slots are consumed, when each unit is free, and
// when each register's value becomes available.
//
// The issue rules (earliest start, unit pick, slot accounting, commit) are
// written once, in earliest and commit, and reached three ways:
//   - Issue and EarliestStart take an *ir.Instr and resolve its opcode and
//     registers on every call. The per-block cost estimator (EstimateCost,
//     the paper's "simplified machine simulator" that labels training
//     instances) and the CPS list scheduler, which asks EarliestStart for
//     every ready instruction and issues the winner, use this form.
//   - IssueDecoded takes a record Decode resolved once.
//   - IssueSegment takes a straight-line run of records DecodeSegment
//     resolved once, with the taken-transfer bubble charged before it,
//     and moves along the state's chained memo of whole normalized
//     pipeline states when that transition has been taken before
//     (segment.go). The whole-program timing simulator decodes each
//     function's segments when a run starts (and again when a hot-swap
//     replaces it), keeps one IssueState alive across basic blocks, and
//     issues one segment per call, carrying the bubble of the transfer
//     that reached it. While it follows the memo only the cycle and the
//     makespan are kept current, so the other forms must not be mixed
//     with it.
//
// Register ready times live in one flat slice of slots: the physical
// registers at fixed offsets, then one slot per virtual register (guards
// included) in first-seen order. The virtual-register table is shared by
// both forms, so a guard keeps its slot, and its ready time, across every
// function decoded into the same state.
type IssueState struct {
	m *Model

	// cycle is the issue cycle of the most recently issued instruction;
	// in-order issue means no later instruction may issue earlier.
	cycle int
	// nonBranch and branch count the slots consumed in 'cycle'.
	nonBranch int
	branch    int

	unitFree [numUnits]int

	// The ready times, indexed by register slot (see slotOf), live in
	// inline until the state sees more than inlineVirtSlots virtual
	// registers, then in ready (nil until then). A short-lived state, as
	// EstimateCost makes, can then live on the stack.
	inline [numPhysSlots + inlineVirtSlots]int
	ready  []int
	// virt maps each virtual register seen so far to its slot.
	virt map[ir.Reg]int32
	// operands backs every Decoded record's register slots.
	operands []int32
	// chain holds the decoded segments and their chained memo; it is nil
	// until DecodeSegment first runs.
	chain *chain

	makespan int
}

const (
	// numPhysSlots is the number of fixed ready slots: the integer,
	// float and condition register files back to back.
	numPhysSlots = ir.NumGPR + ir.NumFPR + ir.NumCond
	// inlineVirtSlots is how many virtual registers fit in the state's
	// inline slots; a block rarely has more guards.
	inlineVirtSlots = 24
)

// NewIssueState returns an empty issue state for the model.
func NewIssueState(m *Model) *IssueState {
	return &IssueState{m: m}
}

// Reset clears the state for reuse, decoded records included (they must
// be decoded again). Storage other than the segments' chained memo is
// retained (emptied, not dropped) so a reused state reaches a steady state
// with no per-reset allocations — the scheduler's pooled scratch resets
// one IssueState per scheduled block.
func (s *IssueState) Reset() {
	model, ready, virt, operands := s.m, s.ready, s.virt, s.operands[:0]
	clear(ready)
	clear(virt)
	*s = IssueState{m: model, ready: ready, virt: virt, operands: operands}
}

// Model returns the machine model the state was built for.
func (s *IssueState) Model() *Model { return s.m }

// slots returns the ready times by slot.
func (s *IssueState) slots() []int {
	if s.ready != nil {
		return s.ready
	}
	return s.inline[:]
}

// slotOf returns r's ready slot; ok is false for a virtual register the
// state has not seen, whose value is ready at cycle 0.
func (s *IssueState) slotOf(r ir.Reg) (slot int, ok bool) {
	switch r.Class {
	case ir.ClassInt:
		if r.N < ir.NumGPR {
			return int(r.N), true
		}
	case ir.ClassFloat:
		if r.N < ir.NumFPR {
			return ir.NumGPR + int(r.N), true
		}
	case ir.ClassCond:
		if r.N < ir.NumCond {
			return ir.NumGPR + ir.NumFPR + int(r.N), true
		}
	}
	v, ok := s.virt[r]
	return int(v), ok
}

// slot returns r's ready slot, giving a new virtual register the next one.
func (s *IssueState) slot(r ir.Reg) int {
	if i, ok := s.slotOf(r); ok {
		return i
	}
	if s.virt == nil {
		s.virt = make(map[ir.Reg]int32)
	}
	i := numPhysSlots + len(s.virt)
	s.virt[r] = int32(i)
	if cur := s.slots(); i == len(cur) {
		grown := make([]int, 2*len(cur))
		copy(grown, cur)
		s.ready = grown
	}
	return i
}

// operandsReady returns the first cycle at which all of in's register
// inputs are available.
func (s *IssueState) operandsReady(in *ir.Instr) int {
	t := 0
	ready := s.slots()
	for _, u := range in.Uses {
		if i, ok := s.slotOf(u); ok && ready[i] > t {
			t = ready[i]
		}
	}
	return t
}

// opClass is what the issue rules need to know about an opcode under a
// model.
type opClass struct {
	// units holds the candidate units, preferred first; nUnits of them
	// are valid (0 for NOP, which executes nowhere).
	units     [2]Unit
	nUnits    uint8
	branch    bool
	pipelined bool
	latency   int32
}

func (m *Model) classOf(op ir.Op) opClass {
	t := &m.Timing[op]
	c := opUnits[op]
	if t.ComplexInt && c.nUnits == 2 {
		c.units[0], c.nUnits = iu1, 1
	}
	c.pipelined, c.latency = t.Pipelined, int32(t.Latency)
	return c
}

// opUnits holds the model-independent part of every opcode's class: the
// units its functional-unit kind offers (both integer units for an
// integer op; a ComplexInt model entry narrows that to IU1) and whether
// it is a branch.
var opUnits = func() (cs [ir.NumOps]opClass) {
	for op := range cs {
		c := &cs[op]
		c.branch = ir.Op(op).IsBranchOp()
		switch ir.Op(op).FU() {
		case ir.FUInt:
			c.units, c.nUnits = [2]Unit{iu2, iu1}, 2
		case ir.FUFloat:
			c.units[0], c.nUnits = fpu, 1
		case ir.FULoadStore:
			c.units[0], c.nUnits = lsu, 1
		case ir.FUBranch:
			c.units[0], c.nUnits = bpu, 1
		case ir.FUSystem:
			c.units[0], c.nUnits = sys, 1
		}
	}
	return cs
}()

// earliest returns the earliest cycle at which an instruction of class c
// whose operands are ready at cycle ready could issue, and the unit it
// would take (meaningless when c has none). The unit is the candidate
// free soonest, the first on ties. In-order issue starts no earlier than
// the current cycle; a full slot in that cycle pushes the start to the
// next one, where every slot is free.
func (s *IssueState) earliest(c *opClass, ready int) (int, Unit) {
	t := max(ready, s.cycle)
	var u Unit
	if c.nUnits > 0 {
		u = c.units[0]
		if c.nUnits > 1 && s.unitFree[c.units[1]] < s.unitFree[u] {
			u = c.units[1]
		}
		t = max(t, s.unitFree[u])
	}
	if t == s.cycle {
		if c.branch && s.branch >= s.m.BranchPerCycle || !c.branch && s.nonBranch >= s.m.IssueWidth {
			t++
		}
	}
	return t, u
}

// commit issues an instruction of class c at cycle t on unit u: it
// consumes the slot, reserves the unit (for one cycle if pipelined, else
// for the full latency) and returns the cycle its results are ready.
func (s *IssueState) commit(c *opClass, t int, u Unit) int {
	if t > s.cycle {
		s.cycle = t
		s.nonBranch = 0
		s.branch = 0
	}
	if c.branch {
		s.branch++
	} else {
		s.nonBranch++
	}
	lat := int(c.latency)
	if c.nUnits > 0 {
		if c.pipelined {
			s.unitFree[u] = t + 1
		} else {
			s.unitFree[u] = t + lat
		}
	}
	done := t + lat
	if done > s.makespan {
		s.makespan = done
	}
	return done
}

// EarliestStart returns the earliest cycle at which in could issue given
// the current state, without modifying the state.
func (s *IssueState) EarliestStart(in *ir.Instr) int {
	c := s.m.classOf(in.Op)
	t, _ := s.earliest(&c, s.operandsReady(in))
	return t
}

// Issue commits in to the schedule at its earliest start and returns that
// start cycle.
func (s *IssueState) Issue(in *ir.Instr) int {
	c := s.m.classOf(in.Op)
	t, u := s.earliest(&c, s.operandsReady(in))
	done := s.commit(&c, t, u)
	for _, d := range in.Defs {
		// Output dependence: with in-order completion a newer write
		// never makes the value available earlier than an older
		// in-flight write, so ready times are monotone.
		if i := s.slot(d); done > s.slots()[i] {
			s.slots()[i] = done
		}
	}
	return t
}

// Decoded is one instruction resolved for an IssueState: its opcode's
// issue class under the state's model and its registers' ready slots. It
// is only meaningful to the state that decoded it, until that state is
// Reset.
type Decoded struct {
	class opClass
	// The register slots are operands[first:first+nUses] (inputs), then
	// nDefs outputs.
	first        int32
	nUses, nDefs uint16
}

// Decode resolves in against the state's model, giving its virtual
// registers ready slots. The model's timing is read now: decode again
// after changing it.
func (s *IssueState) Decode(in *ir.Instr) Decoded {
	d := Decoded{class: s.m.classOf(in.Op), first: int32(len(s.operands)),
		nUses: uint16(len(in.Uses)), nDefs: uint16(len(in.Defs))}
	for _, regs := range [2][]ir.Reg{in.Uses, in.Defs} {
		for _, r := range regs {
			s.operands = append(s.operands, int32(s.slot(r)))
		}
	}
	return d
}

// IssueDecoded is Issue for a decoded instruction.
func (s *IssueState) IssueDecoded(d *Decoded) int {
	t, _ := s.issue(d)
	return t
}

// regs returns d's register slots: nUses inputs, then nDefs outputs.
func (s *IssueState) regs(d *Decoded) []int32 {
	return s.operands[d.first : d.first+int32(d.nUses)+int32(d.nDefs)]
}

// issue issues a decoded instruction and returns its start cycle and the
// cycle its results are ready.
func (s *IssueState) issue(d *Decoded) (t, done int) {
	ops := s.regs(d)
	ready := s.slots()
	at := 0
	for _, i := range ops[:d.nUses] {
		if ready[i] > at {
			at = ready[i]
		}
	}
	t, u := s.earliest(&d.class, at)
	done = s.commit(&d.class, t, u)
	for _, i := range ops[d.nUses:] {
		if done > ready[i] {
			ready[i] = done
		}
	}
	return t, done
}

// Cycle returns the current issue cycle.
func (s *IssueState) Cycle() int { return s.cycle }

// Makespan returns the completion cycle of the latest-finishing
// instruction issued so far.
func (s *IssueState) Makespan() int { return s.makespan }

// EstimateCost runs the simplified block timing simulator: it issues the
// instructions in the given order from a cold pipeline and returns the
// block's makespan in cycles. This is the estimator used both to label
// training instances and by the list scheduler's ready-choice rule.
func EstimateCost(m *Model, instrs []ir.Instr) int {
	s := NewIssueState(m)
	for i := range instrs {
		s.Issue(&instrs[i])
	}
	return s.Makespan()
}

// EstimateBlockCost is EstimateCost applied to a basic block.
func EstimateBlockCost(m *Model, b *ir.Block) int {
	return EstimateCost(m, b.Instrs)
}
