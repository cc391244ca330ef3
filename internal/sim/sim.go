// Package sim executes machine-IR programs. It is both the functional
// runtime (heap, call protocol, runtime services) used for differential
// testing against the bytecode interpreter, and — in timed mode — the
// whole-program cycle simulator behind the paper's "application running
// time" measurements: one in-order issue pipeline carried across basic
// blocks, with a bubble charged on taken control transfers.
//
// A run starts by decoding every function once into the form the dispatch
// loop walks: per block, a slice of machine.Decoded records, each holding
// the instruction, its opcode's issue class under the run's model and the
// ready-time slots of its registers. Timed and untimed runs share that
// loop; a timed run also hands each record to the run's
// machine.IssueState, which applies the same issue rules the scheduler's
// estimator does. The loop re-fetches the function and block only on a
// control transfer. Decoding is per run, from the run's Model, because
// Model.Timing is mutable; a hot-swapped function is decoded when it is
// installed.
//
// Simplifications versus real silicon, documented per the paper's own
// argument that only relative block timings matter: no caches (every load
// hits), a fixed taken-branch bubble instead of a branch predictor, and a
// "magic ABI" call protocol — the runtime saves and restores the full
// register file around calls (except return-value registers) and allocates
// spill frames itself. Allocation is a bump allocator; GC safe points
// exist but collection never triggers.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Memory layout (word addresses).
const (
	// GlobalBase is where global slot 0 lives; r2 points here.
	GlobalBase = 16
	// DefaultMemWords is the default memory size (32 MiB).
	DefaultMemWords = 1 << 22
)

// cancelCheckEvery is how many executed instructions pass between checks
// of Config.Context (at the next block entry).
const cancelCheckEvery = 1 << 16

// Config controls a run.
type Config struct {
	// Context, when set, stops the run: it is checked at the first block
	// entry after every 2^16 executed instructions, and a run whose
	// context is done returns the context's error.
	Context context.Context
	// MemWords sizes the flat word-addressed memory; 0 means
	// DefaultMemWords.
	MemWords int
	// Timed enables the cycle pipeline (requires Model).
	Timed bool
	// Model is the machine timing model for timed runs.
	Model *machine.Model
	// StepLimit bounds executed instructions; 0 means a generous
	// default.
	StepLimit int64
	// SampleEvery, when positive, fires OnSample at the first block
	// entry (a safe point) after every SampleEvery executed
	// instructions. See profile.go.
	SampleEvery int64
	// OnSample receives periodic profile snapshots and may return
	// function hot-swaps to install at safe points. Required when
	// SampleEvery is set.
	OnSample func(*Snapshot) []FnSwap
}

// Result reports a completed run.
type Result struct {
	// Ret is main's return value (r3 at exit).
	Ret int64
	// Output records runtime prints, formatted identically to the
	// bytecode interpreter ("i:<v>" / "f:<v>").
	Output []string
	// DynInstrs counts executed machine instructions.
	DynInstrs int64
	// Cycles is the pipeline makespan (timed runs only).
	Cycles int64
	// ExecCounts[fn][block] counts block entries (the profile used for
	// the paper's weighted simulated-time metric).
	ExecCounts [][]int64
	// TakenCounts[fn][block] counts how often the block's terminating
	// conditional branch was taken (zero for blocks ending in B/BLR).
	// Together with ExecCounts this gives the edge profile superblock
	// formation needs.
	TakenCounts [][]int64
	// Swaps counts function hot-swaps installed at safe points (runs
	// with a sampling hook only).
	Swaps int
}

// Trap is a machine-level runtime error (the hardware analogue of a Java
// exception).
type Trap struct {
	Fn   string
	Kind string
}

func (t *Trap) Error() string { return fmt.Sprintf("sim: %s in %s", t.Kind, t.Fn) }

// State is the architectural state, exposed so tests can execute single
// blocks from arbitrary starting points. Guards carry no architectural
// value (they only order instructions in the timing model), so the state
// has no storage for them.
type State struct {
	Regs  [ir.NumGPR]int64
	FRegs [ir.NumFPR]float64
	CRs   [ir.NumCond]int8
	Mem   []uint64

	heapPtr int64
	out     []string

	// Every word written so far lies in Mem[:heapEnd] or
	// Mem[stackStart:]: stores below the stack pointer and allocations
	// raise heapEnd, stores at or above it lower stackStart. A run's
	// memory is freed for reuse with only those windows cleared.
	heapEnd, stackStart int64
}

// NewState allocates a zeroed machine state with the given memory size.
func NewState(memWords int) *State {
	if memWords <= 0 {
		memWords = DefaultMemWords
	}
	return newState(make([]uint64, memWords))
}

func newState(mem []uint64) *State {
	return &State{Mem: mem, heapPtr: GlobalBase, stackStart: int64(len(mem))}
}

// freeMem holds released run memories, zeroed, for reuse. It keeps one
// per processor, so up to GOMAXPROCS concurrent runs allocate no memory
// after warm-up, and no more, so idle memory stays bounded. (A sync.Pool
// drops its contents at every GC, and the garbage of a training round
// triggers GCs often enough that most runs would allocate afresh.)
var freeMem = make(chan []uint64, runtime.GOMAXPROCS(0))

// runState returns a state over zeroed memory of the given size, reusing
// a released run's memory when one is free.
func runState(memWords int) *State {
	if memWords <= 0 {
		memWords = DefaultMemWords
	}
	select {
	case m := <-freeMem:
		if len(m) == memWords {
			return newState(m)
		}
	default:
	}
	return newState(make([]uint64, memWords))
}

// release zeroes the words the run wrote and frees its memory for reuse.
// The state must not be used afterwards.
func (s *State) release() {
	clear(s.Mem[:s.heapEnd])
	clear(s.Mem[s.stackStart:])
	select {
	case freeMem <- s.Mem:
	default:
	}
	s.Mem = nil
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := *s
	c.Mem = append([]uint64(nil), s.Mem...)
	c.out = append([]string(nil), s.out...)
	return &c
}

// Equal reports whether two states have identical registers and memory.
// Guard and output history are excluded.
func (s *State) Equal(o *State) bool {
	if s.Regs != o.Regs || s.CRs != o.CRs {
		return false
	}
	for i := range s.FRegs {
		a, b := s.FRegs[i], o.FRegs[i]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return false
		}
	}
	if len(s.Mem) != len(o.Mem) {
		return false
	}
	for i := range s.Mem {
		if s.Mem[i] != o.Mem[i] {
			return false
		}
	}
	return true
}

type frame struct {
	fn, blk, idx int
	regs         [ir.NumGPR]int64
	fregs        [ir.NumFPR]float64
	crs          [ir.NumCond]int8
}

// Run executes the program from its entry function.
func Run(p *ir.Program, cfg Config) (*Result, error) {
	limit := cfg.StepLimit
	if limit <= 0 {
		limit = 1 << 33
	}
	var issue *machine.IssueState
	if cfg.Timed {
		if cfg.Model == nil {
			return nil, fmt.Errorf("sim: timed run requires a model")
		}
		issue = machine.NewIssueState(cfg.Model)
	}
	if cfg.SampleEvery > 0 && cfg.OnSample == nil {
		return nil, fmt.Errorf("sim: SampleEvery requires an OnSample hook")
	}

	res := &Result{
		ExecCounts:  make([][]int64, len(p.Fns)),
		TakenCounts: make([][]int64, len(p.Fns)),
	}
	for i, f := range p.Fns {
		res.ExecCounts[i] = make([]int64, len(f.Blocks))
		res.TakenCounts[i] = make([]int64, len(f.Blocks))
	}

	// Layout: globals at GlobalBase, heap after, stack at the top.
	st := runState(cfg.MemWords)
	defer st.release()
	st.heapPtr = int64(GlobalBase + p.Globals)
	st.Regs[2] = GlobalBase
	st.Regs[1] = int64(len(st.Mem))

	ex := &executor{p: p, st: st, res: res, issue: issue, limit: limit,
		bubble: 1, nextCheck: math.MaxInt64, nextSample: math.MaxInt64}
	if cfg.Model != nil {
		ex.bubble = cfg.Model.TakenBranchBubble
	}
	if ctx := cfg.Context; ctx != nil && ctx.Done() != nil {
		ex.ctx = ctx
		ex.nextCheck = cancelCheckEvery
	}
	if cfg.SampleEvery > 0 {
		ex.sampleEvery = cfg.SampleEvery
		ex.nextSample = cfg.SampleEvery
		ex.onSample = cfg.OnSample
		ex.pending = map[int]*ir.Fn{}
	}
	ex.nextPoll = min(ex.nextCheck, ex.nextSample)
	ex.code = make([]fnCode, len(p.Fns))
	ex.decode(p.Fns, ex.code)

	// Run $init (global initializers) before main, as the runtime does.
	if init := fnIndexByName(p, "$init"); init >= 0 {
		if err := ex.callAndRun(init); err != nil {
			return nil, err
		}
	}
	if err := ex.callAndRun(p.Entry); err != nil {
		return nil, err
	}
	res.Ret = st.Regs[3]
	res.Output = st.out
	if issue != nil {
		res.Cycles = int64(issue.Makespan())
	}
	return res, nil
}

func fnIndexByName(p *ir.Program, name string) int {
	for i, f := range p.Fns {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// fnCode is a function in the form the dispatch loop walks: blocks[b]
// holds block b's instructions, decoded.
type fnCode struct {
	fn     *ir.Fn
	blocks [][]machine.Decoded
}

type executor struct {
	p      *ir.Program
	code   []fnCode
	st     *State
	res    *Result
	issue  *machine.IssueState
	frames []frame
	limit  int64
	bubble int

	// nextPoll is the instruction count at which the next block entry
	// runs poll: the earlier of the next context check and the next
	// sample (math.MaxInt64 when there is neither).
	nextPoll  int64
	ctx       context.Context
	nextCheck int64

	// Profile-sampling hook state (see profile.go).
	sampleEvery int64
	nextSample  int64
	onSample    func(*Snapshot) []FnSwap
	pending     map[int]*ir.Fn
	installed   []int
}

// decode puts fns in dispatch form into code (one entry per function),
// backed by two allocations. A timed run decodes through its issue state,
// which gives each virtual register one ready slot program-wide; an
// untimed run only needs the instructions.
func (ex *executor) decode(fns []*ir.Fn, code []fnCode) {
	nInstrs, nBlocks := 0, 0
	for _, f := range fns {
		nBlocks += len(f.Blocks)
		for _, b := range f.Blocks {
			nInstrs += len(b.Instrs)
		}
	}
	all := make([]machine.Decoded, 0, nInstrs)
	blocks := make([][]machine.Decoded, nBlocks)
	for i, f := range fns {
		code[i] = fnCode{fn: f, blocks: blocks[:len(f.Blocks):len(f.Blocks)]}
		for bi, b := range f.Blocks {
			start := len(all)
			for j := range b.Instrs {
				in := &b.Instrs[j]
				if ex.issue != nil {
					all = append(all, ex.issue.Decode(in))
				} else {
					all = append(all, machine.Decoded{In: in})
				}
			}
			blocks[bi] = all[start:len(all):len(all)]
		}
		blocks = blocks[len(f.Blocks):]
	}
}

// poll runs the checks that fall due on the executed-instruction count,
// at a block entry of function curFn: the context check and the sampling
// hook.
func (ex *executor) poll(curFn int) error {
	if ex.res.DynInstrs >= ex.nextCheck {
		if err := ex.ctx.Err(); err != nil {
			return err
		}
		ex.nextCheck = ex.res.DynInstrs + cancelCheckEvery
	}
	if ex.res.DynInstrs >= ex.nextSample {
		ex.sample(curFn)
	}
	ex.nextPoll = min(ex.nextCheck, ex.nextSample)
	return nil
}

// callAndRun invokes fn as the runtime would (fresh frame, run to return)
// and returns when the outermost call completes.
func (ex *executor) callAndRun(fnIdx int) error {
	baseDepth := len(ex.frames)
	ex.frames = append(ex.frames, frame{fn: -1}) // sentinel: return to runtime
	st, res, issue := ex.st, ex.res, ex.issue
	st.Regs[1] -= int64(ex.code[fnIdx].fn.FrameSlots)

	fn, blk, idx := fnIdx, ex.code[fnIdx].fn.Entry, 0
transfer:
	for {
		// Control arrives here at a block entry (idx 0) or a return
		// point; only here are the function and block fetched.
		if idx == 0 {
			res.ExecCounts[fn][blk]++
			if res.DynInstrs >= ex.nextPoll {
				// Sampling may hot-swap the current function.
				if err := ex.poll(fn); err != nil {
					return err
				}
			}
		}
		c := &ex.code[fn]
		code := c.blocks[blk]
		for ; idx < len(code); idx++ {
			d := &code[idx]
			in := d.In
			res.DynInstrs++
			if res.DynInstrs > ex.limit {
				return fmt.Errorf("sim: step limit (%d) exceeded in %s", ex.limit, c.fn.Name)
			}
			if issue != nil {
				issue.IssueDecoded(d)
			}

			switch in.Op {
			case ir.B:
				blk, idx = in.Target, 0
				ex.chargeBubble()
				continue transfer
			case ir.BC:
				if ir.EvalCond(in.Imm, st.CRs[in.Uses[0].N]) {
					res.TakenCounts[fn][blk]++
					blk, idx = in.Target, 0
					ex.chargeBubble()
				} else {
					blk, idx = c.fn.Blocks[blk].Succs[1], 0
				}
				continue transfer
			case ir.BL:
				callee := ex.code[in.Target].fn
				fr := frame{fn: fn, blk: blk, idx: idx + 1}
				fr.regs = st.Regs
				fr.fregs = st.FRegs
				fr.crs = st.CRs
				ex.frames = append(ex.frames, fr)
				st.Regs[1] -= int64(callee.FrameSlots)
				if st.Regs[1] <= st.heapPtr {
					return &Trap{Fn: callee.Name, Kind: "stack overflow"}
				}
				fn, blk, idx = in.Target, callee.Entry, 0
				ex.chargeBubble()
				continue transfer
			case ir.BLR:
				fr := ex.frames[len(ex.frames)-1]
				ex.frames = ex.frames[:len(ex.frames)-1]
				if fr.fn < 0 {
					// Returning to the runtime.
					if len(ex.frames) != baseDepth {
						return fmt.Errorf("sim: frame imbalance")
					}
					return nil
				}
				// The call protocol restores the caller's registers,
				// then delivers the return value in exactly the declared
				// return register (r3 or f1) — the other file is fully
				// preserved, matching BL's declared Defs.
				retI, retF := st.Regs[3], st.FRegs[1]
				st.Regs = fr.regs
				st.FRegs = fr.fregs
				st.CRs = fr.crs
				if c.fn.RetFloat {
					st.FRegs[1] = retF
				} else {
					st.Regs[3] = retI
				}
				fn, blk, idx = fr.fn, fr.blk, fr.idx
				ex.chargeBubble()
				continue transfer
			}

			if err := st.step(in, c.fn.Name); err != nil {
				return err
			}
		}
		return fmt.Errorf("sim: control ran off the end of %s block %d", c.fn.Name, blk)
	}
}

func (ex *executor) chargeBubble() {
	if ex.issue != nil && ex.bubble > 0 {
		ex.issue.AdvanceTo(ex.issue.Cycle() + ex.bubble)
	}
}

// step executes one non-control instruction against the state.
func (s *State) step(in *ir.Instr, fnName string) error {
	R := func(i int) int64 { return s.Regs[in.Uses[i].N] }
	F := func(i int) float64 { return s.FRegs[in.Uses[i].N] }
	setI := func(v int64) { s.Regs[in.Defs[0].N] = v }
	setF := func(v float64) { s.FRegs[in.Defs[0].N] = v }

	switch in.Op {
	case ir.NOP, ir.YIELDPOINT, ir.TSPOINT:
	case ir.ADD:
		setI(R(0) + R(1))
	case ir.SUB:
		setI(R(0) - R(1))
	case ir.MULL:
		setI(R(0) * R(1))
	case ir.DIVW:
		if R(1) == 0 {
			return &Trap{Fn: fnName, Kind: "divide by zero"}
		}
		setI(R(0) / R(1))
	case ir.NEG:
		setI(-R(0))
	case ir.AND:
		setI(R(0) & R(1))
	case ir.OR:
		setI(R(0) | R(1))
	case ir.XOR:
		setI(R(0) ^ R(1))
	case ir.SLW:
		setI(R(0) << uint64(R(1)&63))
	case ir.SRAW:
		setI(R(0) >> uint64(R(1)&63))
	case ir.ADDI:
		setI(R(0) + in.Imm)
	case ir.ANDI:
		setI(R(0) & in.Imm)
	case ir.ORI:
		setI(R(0) | in.Imm)
	case ir.XORI:
		setI(R(0) ^ in.Imm)
	case ir.SLWI:
		setI(R(0) << uint64(in.Imm&63))
	case ir.SRAWI:
		setI(R(0) >> uint64(in.Imm&63))
	case ir.LI:
		setI(in.Imm)
	case ir.MR:
		setI(R(0))
	case ir.CMP:
		s.CRs[in.Defs[0].N] = sign(R(0) - R(1))
	case ir.CMPI:
		s.CRs[in.Defs[0].N] = sign(R(0) - in.Imm)
	case ir.FADD:
		setF(F(0) + F(1))
	case ir.FSUB:
		setF(F(0) - F(1))
	case ir.FMUL:
		setF(F(0) * F(1))
	case ir.FDIV:
		setF(F(0) / F(1))
	case ir.FNEG:
		setF(-F(0))
	case ir.FMR:
		setF(F(0))
	case ir.FCMP:
		s.CRs[in.Defs[0].N] = fsign(F(0), F(1))
	case ir.F2I:
		setI(int64(F(0)))
	case ir.I2F:
		setF(float64(R(0)))
	case ir.LFI:
		setF(in.FImm)
	case ir.LD:
		v, err := s.load(R(0)+in.Imm, fnName)
		if err != nil {
			return err
		}
		setI(int64(v))
	case ir.LDX:
		v, err := s.load(R(0)+R(1), fnName)
		if err != nil {
			return err
		}
		setI(int64(v))
	case ir.LFD:
		v, err := s.load(R(0)+in.Imm, fnName)
		if err != nil {
			return err
		}
		setF(math.Float64frombits(v))
	case ir.LFDX:
		v, err := s.load(R(0)+R(1), fnName)
		if err != nil {
			return err
		}
		setF(math.Float64frombits(v))
	case ir.ST:
		return s.store(R(1)+in.Imm, uint64(R(0)), fnName)
	case ir.STX:
		return s.store(R(1)+R(2), uint64(R(0)), fnName)
	case ir.STFD:
		return s.store(R(1)+in.Imm, math.Float64bits(F(0)), fnName)
	case ir.STFX:
		return s.store(R(1)+R(2), math.Float64bits(F(0)), fnName)
	case ir.ALLOC:
		n := R(0)
		if n < 0 {
			return &Trap{Fn: fnName, Kind: "negative allocation"}
		}
		addr := s.heapPtr
		if addr+n+1 >= s.Regs[1] {
			return &Trap{Fn: fnName, Kind: "out of memory"}
		}
		s.Mem[addr] = uint64(n)
		clear(s.Mem[addr+1 : addr+n+1])
		s.heapPtr = addr + n + 1
		s.heapEnd = max(s.heapEnd, s.heapPtr)
		setI(addr)
	case ir.NULLCHECK:
		if R(0) == 0 {
			return &Trap{Fn: fnName, Kind: "null pointer"}
		}
	case ir.BOUNDSCHECK:
		if R(0) < 0 || R(0) >= R(1) {
			return &Trap{Fn: fnName, Kind: "index out of bounds"}
		}
	case ir.RTPRINTI:
		s.out = append(s.out, "i:"+strconv.FormatInt(R(0), 10))
	case ir.RTPRINTF:
		s.out = append(s.out, "f:"+strconv.FormatFloat(F(0), 'g', 12, 64))
	default:
		return fmt.Errorf("sim: cannot execute %v", in.Op)
	}
	return nil
}

func (s *State) load(addr int64, fnName string) (uint64, error) {
	if addr <= 0 || addr >= int64(len(s.Mem)) {
		return 0, &Trap{Fn: fnName, Kind: fmt.Sprintf("bad load address %d", addr)}
	}
	return s.Mem[addr], nil
}

func (s *State) store(addr int64, v uint64, fnName string) error {
	if addr <= 0 || addr >= int64(len(s.Mem)) {
		return &Trap{Fn: fnName, Kind: fmt.Sprintf("bad store address %d", addr)}
	}
	if addr >= s.Regs[1] {
		s.stackStart = min(s.stackStart, addr)
	} else {
		s.heapEnd = max(s.heapEnd, addr+1)
	}
	s.Mem[addr] = v
	return nil
}

func sign(v int64) int8 {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func fsign(a, b float64) int8 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// ExecBlock executes the straight-line (non-control) prefix of a block
// against the state, stopping at the first control-flow instruction. It is
// the oracle for the scheduling semantics-preservation property: a block
// and its scheduled permutation must leave identical states.
func ExecBlock(st *State, b *ir.Block) error {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.IsBranchOp() {
			// Evaluate compare-dependent state only; control effects
			// are outside a single block's semantics.
			continue
		}
		if err := st.step(in, "block"); err != nil {
			return err
		}
	}
	return nil
}
