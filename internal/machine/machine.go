// Package machine models the execution resources of an MPC7410-like
// PowerPC implementation: two dissimilar integer units, one floating-point
// unit, one load/store unit, one system unit, and one branch unit, with an
// issue width of one branch plus two non-branch instructions per cycle.
//
// The package provides the "simplified machine simulator" of Cavazos & Moss
// (PLDI 2004): a per-block cost estimator that the list scheduler uses to
// decide which ready instruction can start soonest, and that the training
// pipeline uses to label blocks as benefiting (or not) from scheduling.
package machine

import (
	"fmt"

	"schedfilter/internal/ir"
)

// Unit identifies one concrete functional unit of the modelled machine.
type Unit uint8

const (
	// IU1 is the complex integer unit: the only unit that can execute
	// multiply and divide, but it also accepts simple integer ops.
	IU1 Unit = iota
	// IU2 is the simple integer unit.
	IU2
	// FPU is the floating-point unit.
	FPU
	// LSU is the load/store unit.
	LSU
	// SYS is the system unit (runtime services, yield/thread-switch
	// points, allocation).
	SYS
	// BPU is the branch unit.
	BPU
	// NumUnits is the number of functional units.
	NumUnits
)

func (u Unit) String() string {
	switch u {
	case IU1:
		return "IU1"
	case IU2:
		return "IU2"
	case FPU:
		return "FPU"
	case LSU:
		return "LSU"
	case SYS:
		return "SYS"
	case BPU:
		return "BPU"
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// OpTiming describes how one opcode executes.
type OpTiming struct {
	// Latency is the cycle count from issue until the results are
	// available to dependent instructions.
	Latency int
	// Pipelined reports whether a new instruction may issue to the same
	// unit on the next cycle (true) or only after Latency cycles
	// (false; divides and system services are not pipelined).
	Pipelined bool
	// ComplexInt restricts an integer op to IU1 (multiply, divide).
	ComplexInt bool
}

// Model is a machine description: per-opcode timings plus issue rules.
// The zero value is not useful; use NewMPC7410 (or build a custom model
// for ablation experiments).
type Model struct {
	// Name identifies the model in reports.
	Name string
	// Timing is indexed by ir.Op.
	Timing [ir.NumOps]OpTiming
	// IssueWidth is the number of non-branch instructions that may
	// issue per cycle (2 on the 7410).
	IssueWidth int
	// BranchPerCycle is the number of branches that may issue per cycle
	// in addition to IssueWidth (1 on the 7410).
	BranchPerCycle int
	// TakenBranchBubble is the pipeline bubble (cycles) charged by the
	// whole-program timing simulator after a taken branch. The
	// per-block estimator does not use it.
	TakenBranchBubble int
}

// NewMPC7410 returns the timing model used throughout the reproduction.
// Latencies follow the MPC7410/MPC7400 user-manual orders of magnitude:
// single-cycle integer ALU, 4-cycle multiply, long non-pipelined divide,
// 2-cycle loads, 3-cycle pipelined floating point, very long non-pipelined
// floating-point divide, and multi-cycle non-pipelined system services.
func NewMPC7410() *Model {
	m := &Model{
		Name:              "MPC7410",
		IssueWidth:        2,
		BranchPerCycle:    1,
		TakenBranchBubble: 1,
	}
	set := func(ops []ir.Op, t OpTiming) {
		for _, op := range ops {
			m.Timing[op] = t
		}
	}
	simple := OpTiming{Latency: 1, Pipelined: true}
	set([]ir.Op{
		ir.ADD, ir.SUB, ir.NEG, ir.AND, ir.OR, ir.XOR, ir.SLW, ir.SRAW,
		ir.ADDI, ir.ANDI, ir.ORI, ir.XORI, ir.SLWI, ir.SRAWI, ir.LI, ir.MR,
		ir.CMP, ir.CMPI, ir.NULLCHECK, ir.BOUNDSCHECK,
	}, simple)
	set([]ir.Op{ir.MULL}, OpTiming{Latency: 4, Pipelined: true, ComplexInt: true})
	set([]ir.Op{ir.DIVW}, OpTiming{Latency: 19, Pipelined: false, ComplexInt: true})

	fp := OpTiming{Latency: 3, Pipelined: true}
	set([]ir.Op{ir.FADD, ir.FSUB, ir.FMUL, ir.FNEG, ir.FMR, ir.FCMP, ir.F2I, ir.I2F, ir.LFI}, fp)
	set([]ir.Op{ir.FDIV}, OpTiming{Latency: 31, Pipelined: false})

	set([]ir.Op{ir.LD, ir.LDX, ir.LFD, ir.LFDX}, OpTiming{Latency: 2, Pipelined: true})
	set([]ir.Op{ir.ST, ir.STX, ir.STFD, ir.STFX}, OpTiming{Latency: 1, Pipelined: true})

	set([]ir.Op{ir.B, ir.BC, ir.BLR}, OpTiming{Latency: 1, Pipelined: true})
	set([]ir.Op{ir.BL}, OpTiming{Latency: 2, Pipelined: true})

	set([]ir.Op{ir.YIELDPOINT, ir.TSPOINT}, OpTiming{Latency: 2, Pipelined: false})
	set([]ir.Op{ir.ALLOC, ir.RTPRINTI, ir.RTPRINTF}, OpTiming{Latency: 6, Pipelined: false})

	m.Timing[ir.NOP] = OpTiming{Latency: 1, Pipelined: true}
	return m
}

// Latency returns the result latency of an opcode under the model.
func (m *Model) Latency(op ir.Op) int { return m.Timing[op].Latency }

// UnitsFor returns the set of concrete units that can execute the opcode,
// preferred first. Simple integer ops may use either integer unit; complex
// ones only IU1.
func (m *Model) UnitsFor(op ir.Op) []Unit {
	c := m.classOf(op)
	return append([]Unit(nil), c.units[:c.nUnits]...)
}

// NewScalar603 returns an older-generation model in the spirit of the
// PowerPC 603: strictly scalar issue (one instruction per cycle, branches
// included in the single slot via BranchPerCycle 0 being illegal — we give
// branches their own slot but only one other instruction may issue),
// slower loads, and a non-pipelined floating-point unit. The paper notes
// that static scheduling gives bigger improvements on such machines; the
// model-comparison experiment reproduces that observation.
func NewScalar603() *Model {
	m := NewMPC7410()
	m.Name = "Scalar603"
	m.IssueWidth = 1
	m.BranchPerCycle = 1
	m.TakenBranchBubble = 2
	set := func(ops []ir.Op, t OpTiming) {
		for _, op := range ops {
			m.Timing[op] = t
		}
	}
	// Loads miss more of the time on a machine of this era; model a
	// longer average latency.
	set([]ir.Op{ir.LD, ir.LDX, ir.LFD, ir.LFDX}, OpTiming{Latency: 3, Pipelined: true})
	// The FPU is not pipelined.
	set([]ir.Op{ir.FADD, ir.FSUB, ir.FMUL, ir.FNEG, ir.FMR, ir.FCMP, ir.F2I, ir.I2F, ir.LFI},
		OpTiming{Latency: 4, Pipelined: false})
	set([]ir.Op{ir.FDIV}, OpTiming{Latency: 36, Pipelined: false})
	set([]ir.Op{ir.MULL}, OpTiming{Latency: 5, Pipelined: false, ComplexInt: true})
	return m
}
