// Package sim executes machine-IR programs. It is both the functional
// runtime (heap, call protocol, runtime services) used for differential
// testing against the bytecode interpreter, and — in timed mode — the
// whole-program cycle simulator behind the paper's "application running
// time" measurements: one in-order issue pipeline carried across basic
// blocks, with a bubble charged on taken control transfers.
//
// A run starts by decoding every function once into the form the dispatch
// loop walks: per block, a slice of records (decode.go), each holding the
// opcode, the register numbers it reads and writes, its immediate, and its
// branch target or callee. Decoding checks every instruction, so a
// malformed program is refused with an error before it runs, and then
// fuses the most frequent adjacent opcode pairs: the first record of a
// pair carries a fused opcode whose case runs both halves, reading the
// second half's operands from the next record, which stays in place. The
// loop executes every opcode, fused pairs and control transfers included,
// from one switch on the record. Timed and untimed runs share that loop.
// Control runs in straight-line segments, from a block entry or a call's
// return point through the next control instruction; no pair crosses
// one's end. The loop re-fetches the function and block only on a
// control transfer, and counts executed instructions once per segment.
// In a timed run the first record of each segment also holds the
// segment's handle in the run's machine.IssueState, which applies the
// same issue rules the scheduler's estimator does, one segment per call.
// A taken transfer's bubble is charged by the issue of the segment it
// reaches, as part of that transition. The state keeps a per-run chained
// memo of whole pipeline states normalized to the issue cycle
// (machine/segment.go): a transition already taken from the current
// state, found in a small edge set inline in the segment, only moves the
// cycle and the makespan, which are all a run reads. Decoding is per run,
// from the run's Model, because Model.Timing is mutable; a hot-swapped
// function is decoded when it is installed, and its new segment handles
// start with no edges. execBlock runs a single block through the same
// loop, so each opcode's semantics is written once for single records; a
// fused case repeats its two halves' statements, and FuzzRun checks every
// run against the same run with no pairs fused.
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

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Memory layout (word addresses).
const (
	// globalBase is where global slot 0 lives; r2 points here.
	globalBase = 16
	// defaultMemWords is the default memory size (32 MiB).
	defaultMemWords = 1 << 22
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
	// MemWords sizes the flat word-addressed memory; 0 means 1<<22
	// words (32 MiB).
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

// trapError is a machine-level runtime error (the hardware analogue of a
// Java exception).
type trapError struct {
	Fn   string
	Kind string
}

func (t *trapError) Error() string { return fmt.Sprintf("sim: %s in %s", t.Kind, t.Fn) }

// state is the architectural state; tests build one with newState to
// execute single blocks from arbitrary starting points. Guards carry no
// architectural value (they only order instructions in the timing
// model), so the state has no storage for them.
type state struct {
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

// newState allocates a zeroed machine state with the given memory size.
func newState(memWords int) *state {
	if memWords <= 0 {
		memWords = defaultMemWords
	}
	return stateOver(make([]uint64, memWords))
}

func stateOver(mem []uint64) *state {
	return &state{Mem: mem, heapPtr: globalBase, stackStart: int64(len(mem))}
}

// freeMem holds released run memories, zeroed, for reuse. It keeps one
// per processor, so up to GOMAXPROCS concurrent runs allocate no memory
// after warm-up, and no more, so idle memory stays bounded. (A sync.Pool
// drops its contents at every GC, and the garbage of a training round
// triggers GCs often enough that most runs would allocate afresh.) Run
// memory comes from mapMem, so a memory that leaves the list is unmapped.
var freeMem = make(chan []uint64, runtime.GOMAXPROCS(0))

// runState returns a state over zeroed memory of the given size, reusing
// a released run's memory when one is free.
func runState(memWords int) *state {
	if memWords <= 0 {
		memWords = defaultMemWords
	}
	select {
	case m := <-freeMem:
		if len(m) == memWords {
			return stateOver(m)
		}
		unmapMem(m)
	default:
	}
	return stateOver(mapMem(memWords))
}

// release zeroes the words the run wrote and frees its memory for reuse.
// The state must not be used afterwards.
func (s *state) release() {
	clear(s.Mem[:s.heapEnd])
	clear(s.Mem[s.stackStart:])
	select {
	case freeMem <- s.Mem:
	default:
		unmapMem(s.Mem)
	}
	s.Mem = nil
}

// Clone returns a deep copy of the state.
func (s *state) Clone() *state {
	c := *s
	c.Mem = append([]uint64(nil), s.Mem...)
	c.out = append([]string(nil), s.out...)
	return &c
}

// Equal reports whether two states have identical registers and memory.
// Guard and output history are excluded.
func (s *state) Equal(o *state) bool {
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
	res, _, err := run(p, cfg, variant{})
	return res, err
}

// variant holds the forms of a run that only tests ask for; the zero
// value is the run Run makes.
type variant struct {
	// unfused decodes no opcode pairs (see fuse).
	unfused bool
	// issue, when set, is the timed run's issue state in place of a new
	// one for cfg.Model.
	issue *machine.IssueState
	// final, when set, receives a copy of the architectural state the
	// run ends in, failed or not.
	final *state
}

// run is Run in the form v, also returning a timed run's issue state.
func run(p *ir.Program, cfg Config, v variant) (*Result, *machine.IssueState, error) {
	limit := cfg.StepLimit
	if limit <= 0 {
		limit = 1 << 33
	}
	var issue *machine.IssueState
	if cfg.Timed {
		if cfg.Model == nil {
			return nil, nil, fmt.Errorf("sim: timed run requires a model")
		}
		issue = v.issue
		if issue == nil {
			issue = machine.NewIssueState(cfg.Model)
		}
	}
	if cfg.SampleEvery > 0 && cfg.OnSample == nil {
		return nil, nil, fmt.Errorf("sim: SampleEvery requires an OnSample hook")
	}
	if p.Entry < 0 || p.Entry >= len(p.Fns) {
		return nil, nil, fmt.Errorf("sim: entry function %d out of range", p.Entry)
	}

	res := &Result{
		ExecCounts:  make([][]int64, len(p.Fns)),
		TakenCounts: make([][]int64, len(p.Fns)),
	}
	for i, f := range p.Fns {
		res.ExecCounts[i] = make([]int64, len(f.Blocks))
		res.TakenCounts[i] = make([]int64, len(f.Blocks))
	}

	// Layout: globals at globalBase, heap after, stack at the top.
	st := runState(cfg.MemWords)
	defer st.release()
	if v.final != nil {
		defer func() { *v.final = *st.Clone() }()
	}
	st.heapPtr = int64(globalBase + p.Globals)
	st.Regs[2] = globalBase
	st.Regs[1] = int64(len(st.Mem))

	ex := &executor{p: p, st: st, res: res, issue: issue, limit: limit, unfused: v.unfused,
		nextCheck: math.MaxInt64, nextSample: math.MaxInt64}
	if issue != nil {
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
	if err := ex.decode(p.Fns, ex.code); err != nil {
		return nil, nil, err
	}

	// Run $init (global initializers) before main, as the runtime does.
	if init := fnIndexByName(p, bytecode.InitFnName); init >= 0 {
		if err := ex.callAndRun(init); err != nil {
			return nil, nil, err
		}
	}
	if err := ex.callAndRun(p.Entry); err != nil {
		return nil, nil, err
	}
	res.Ret = st.Regs[3]
	res.Output = st.out
	if issue != nil {
		res.Cycles = int64(issue.Makespan())
	}
	return res, issue, nil
}

func fnIndexByName(p *ir.Program, name string) int {
	for i, f := range p.Fns {
		if f.Name == name {
			return i
		}
	}
	return -1
}

type executor struct {
	p      *ir.Program
	code   []fnCode
	st     *state
	res    *Result
	issue  *machine.IssueState
	frames []frame
	limit  int64
	// bubble is the model's taken-branch bubble; taken is set from a
	// taken control transfer until the issue of the segment it reaches
	// charges its bubble.
	bubble int
	taken  bool
	// unfused is set when decode fuses no opcode pairs.
	unfused bool

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
		if err := ex.sample(curFn); err != nil {
			return err
		}
	}
	ex.nextPoll = min(ex.nextCheck, ex.nextSample)
	return nil
}

// callAndRun invokes fn as the runtime would (fresh frame, run to return)
// and returns when the outermost call completes.
//
// Control runs in straight-line segments: from a block entry or a call's
// return point up to and including the next control instruction. A
// segment's instructions are counted, the step limit tested and, in a
// timed run, the whole segment issued, when it starts. A taken transfer's
// bubble is not charged when the transfer runs: the issue of the segment
// it reaches charges it, as part of that segment's transition. A limit
// that falls inside the segment runs only the instructions up to the
// limit, and only the first half of a fused pair it cuts; a trap or a
// limit inside it leaves the count and the timing overstated, which no
// caller sees, since the run fails.
func (ex *executor) callAndRun(fnIdx int) error {
	baseDepth := len(ex.frames)
	ex.frames = append(ex.frames, frame{fn: -1}) // sentinel: return to runtime
	st, res := ex.st, ex.res
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
		seg := c.blocks[blk][idx:]
		n := 0
		if len(seg) > 0 {
			n = int(seg[0].seg)
			if issue := ex.issue; issue != nil && !issue.FollowSegment(seg[0].timing, ex.taken) {
				issue.IssueSegment(seg[0].timing, ex.taken)
			}
		}
		seg = seg[:min(int64(n), ex.limit-res.DynInstrs)]
		if k := len(seg); k < n && k > 0 {
			// The run ends with this segment, so its code may change:
			// a pair the limit cuts runs only its first half.
			unfuse(&seg[k-1])
		}
		res.DynInstrs += int64(len(seg))
		ex.taken = false

		// The index is unsigned so that the loop condition alone bounds
		// it: a fused pair steps it twice.
		for i := uint(0); i < uint(len(seg)); i++ {
			d := &seg[i]
			switch d.op {
			case ir.NOP, ir.YIELDPOINT, ir.TSPOINT:
			case ir.ADD:
				st.Regs[d.d] = st.Regs[d.a] + st.Regs[d.b]
			case ir.SUB:
				st.Regs[d.d] = st.Regs[d.a] - st.Regs[d.b]
			case ir.MULL:
				st.Regs[d.d] = st.Regs[d.a] * st.Regs[d.b]
			case ir.DIVW:
				if st.Regs[d.b] == 0 {
					return &trapError{Fn: c.fn.Name, Kind: "divide by zero"}
				}
				st.Regs[d.d] = st.Regs[d.a] / st.Regs[d.b]
			case ir.NEG:
				st.Regs[d.d] = -st.Regs[d.a]
			case ir.AND:
				st.Regs[d.d] = st.Regs[d.a] & st.Regs[d.b]
			case ir.OR:
				st.Regs[d.d] = st.Regs[d.a] | st.Regs[d.b]
			case ir.XOR:
				st.Regs[d.d] = st.Regs[d.a] ^ st.Regs[d.b]
			case ir.SLW:
				st.Regs[d.d] = st.Regs[d.a] << uint64(st.Regs[d.b]&63)
			case ir.SRAW:
				st.Regs[d.d] = st.Regs[d.a] >> uint64(st.Regs[d.b]&63)
			case ir.ADDI:
				st.Regs[d.d] = st.Regs[d.a] + d.imm
			case ir.ANDI:
				st.Regs[d.d] = st.Regs[d.a] & d.imm
			case ir.ORI:
				st.Regs[d.d] = st.Regs[d.a] | d.imm
			case ir.XORI:
				st.Regs[d.d] = st.Regs[d.a] ^ d.imm
			case ir.SLWI:
				st.Regs[d.d] = st.Regs[d.a] << uint64(d.imm&63)
			case ir.SRAWI:
				st.Regs[d.d] = st.Regs[d.a] >> uint64(d.imm&63)
			case ir.LI:
				st.Regs[d.d] = d.imm
			case ir.MR:
				st.Regs[d.d] = st.Regs[d.a]
			case ir.CMP:
				st.CRs[d.d] = sign(st.Regs[d.a] - st.Regs[d.b])
			case ir.CMPI:
				st.CRs[d.d] = sign(st.Regs[d.a] - d.imm)
			case ir.FADD:
				st.FRegs[d.d] = st.FRegs[d.a] + st.FRegs[d.b]
			case ir.FSUB:
				st.FRegs[d.d] = st.FRegs[d.a] - st.FRegs[d.b]
			case ir.FMUL:
				st.FRegs[d.d] = st.FRegs[d.a] * st.FRegs[d.b]
			case ir.FDIV:
				st.FRegs[d.d] = st.FRegs[d.a] / st.FRegs[d.b]
			case ir.FNEG:
				st.FRegs[d.d] = -st.FRegs[d.a]
			case ir.FMR:
				st.FRegs[d.d] = st.FRegs[d.a]
			case ir.FCMP:
				st.CRs[d.d] = fsign(st.FRegs[d.a], st.FRegs[d.b])
			case ir.F2I:
				st.Regs[d.d] = int64(st.FRegs[d.a])
			case ir.I2F:
				st.FRegs[d.d] = float64(st.Regs[d.a])
			case ir.LFI:
				st.FRegs[d.d] = math.Float64frombits(uint64(d.imm))
			case ir.LD:
				addr := st.Regs[d.a] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[d.d] = int64(st.Mem[addr])
			case ir.LDX:
				addr := st.Regs[d.a] + st.Regs[d.b]
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[d.d] = int64(st.Mem[addr])
			case ir.LFD:
				addr := st.Regs[d.a] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.FRegs[d.d] = math.Float64frombits(st.Mem[addr])
			case ir.LFDX:
				addr := st.Regs[d.a] + st.Regs[d.b]
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.FRegs[d.d] = math.Float64frombits(st.Mem[addr])
			case ir.ST:
				addr := st.Regs[d.b] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "store", addr)
				}
				st.store(addr, uint64(st.Regs[d.a]))
			case ir.STX:
				addr := st.Regs[d.b] + st.Regs[d.c]
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "store", addr)
				}
				st.store(addr, uint64(st.Regs[d.a]))
			case ir.STFD:
				addr := st.Regs[d.b] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "store", addr)
				}
				st.store(addr, math.Float64bits(st.FRegs[d.a]))
			case ir.STFX:
				addr := st.Regs[d.b] + st.Regs[d.c]
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "store", addr)
				}
				st.store(addr, math.Float64bits(st.FRegs[d.a]))
			case ir.ALLOC:
				n := st.Regs[d.a]
				if n < 0 {
					return &trapError{Fn: c.fn.Name, Kind: "negative allocation"}
				}
				// The block and its header must end below the stack
				// pointer and within memory.
				addr := st.heapPtr
				if top := min(st.Regs[1], int64(len(st.Mem))); top <= addr || n >= top-addr-1 {
					return &trapError{Fn: c.fn.Name, Kind: "out of memory"}
				}
				st.Mem[addr] = uint64(n)
				clear(st.Mem[addr+1 : addr+n+1])
				st.heapPtr = addr + n + 1
				st.heapEnd = max(st.heapEnd, st.heapPtr)
				st.Regs[d.d] = addr
			case ir.NULLCHECK:
				if st.Regs[d.a] == 0 {
					return &trapError{Fn: c.fn.Name, Kind: "null pointer"}
				}
			case ir.BOUNDSCHECK:
				if st.Regs[d.a] < 0 || st.Regs[d.a] >= st.Regs[d.b] {
					return &trapError{Fn: c.fn.Name, Kind: "index out of bounds"}
				}
			case ir.RTPRINTI:
				st.out = append(st.out, "i:"+strconv.FormatInt(st.Regs[d.a], 10))
			case ir.RTPRINTF:
				st.out = append(st.out, "f:"+strconv.FormatFloat(st.FRegs[d.a], 'g', 12, 64))

			// A fused pair (see pairs) repeats the statements of its
			// two halves, the first on d, the second on the next
			// record, e, which the loop then steps over. A pair that
			// ends in a branch falls through into the branch's case.
			case nullcheckLD:
				if st.Regs[d.a] == 0 {
					return &trapError{Fn: c.fn.Name, Kind: "null pointer"}
				}
				i++
				e := &seg[i]
				addr := st.Regs[e.a] + e.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[e.d] = int64(st.Mem[addr])
			case ldBoundscheck:
				addr := st.Regs[d.a] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[d.d] = int64(st.Mem[addr])
				i++
				e := &seg[i]
				if st.Regs[e.a] < 0 || st.Regs[e.a] >= st.Regs[e.b] {
					return &trapError{Fn: c.fn.Name, Kind: "index out of bounds"}
				}
			case boundscheckADDI:
				if st.Regs[d.a] < 0 || st.Regs[d.a] >= st.Regs[d.b] {
					return &trapError{Fn: c.fn.Name, Kind: "index out of bounds"}
				}
				i++
				e := &seg[i]
				st.Regs[e.d] = st.Regs[e.a] + e.imm
			case liADD:
				st.Regs[d.d] = d.imm
				i++
				e := &seg[i]
				st.Regs[e.d] = st.Regs[e.a] + st.Regs[e.b]
			case addMR:
				st.Regs[d.d] = st.Regs[d.a] + st.Regs[d.b]
				i++
				e := &seg[i]
				st.Regs[e.d] = st.Regs[e.a]
			case addiLDX:
				st.Regs[d.d] = st.Regs[d.a] + d.imm
				i++
				e := &seg[i]
				addr := st.Regs[e.a] + st.Regs[e.b]
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[e.d] = int64(st.Mem[addr])
			case ldLD:
				addr := st.Regs[d.a] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[d.d] = int64(st.Mem[addr])
				i++
				e := &seg[i]
				addr = st.Regs[e.a] + e.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[e.d] = int64(st.Mem[addr])
			case ldNullcheck:
				addr := st.Regs[d.a] + d.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[d.d] = int64(st.Mem[addr])
				i++
				e := &seg[i]
				if st.Regs[e.a] == 0 {
					return &trapError{Fn: c.fn.Name, Kind: "null pointer"}
				}
			case addiLD:
				st.Regs[d.d] = st.Regs[d.a] + d.imm
				i++
				e := &seg[i]
				addr := st.Regs[e.a] + e.imm
				if !st.inMem(addr) {
					return memTrap(c.fn.Name, "load", addr)
				}
				st.Regs[e.d] = int64(st.Mem[addr])

			case mrB:
				st.Regs[d.d] = st.Regs[d.a]
				i++
				d = &seg[i]
				fallthrough
			case ir.B:
				blk, idx, ex.taken = int(d.tgt), 0, true
				continue transfer
			case cmpBC:
				st.CRs[d.d] = sign(st.Regs[d.a] - st.Regs[d.b])
				i++
				d = &seg[i]
				fallthrough
			case ir.BC:
				if d.imm>>uint8(st.CRs[d.a]+1)&1 != 0 {
					res.TakenCounts[fn][blk]++
					blk, ex.taken = int(d.tgt), true
				} else {
					blk = int(d.alt)
				}
				idx = 0
				continue transfer
			case ir.BL:
				callee := ex.code[d.tgt].fn
				fr := frame{fn: fn, blk: blk, idx: idx + int(i) + 1}
				fr.regs = st.Regs
				fr.fregs = st.FRegs
				fr.crs = st.CRs
				ex.frames = append(ex.frames, fr)
				st.Regs[1] -= int64(callee.FrameSlots)
				if st.Regs[1] <= st.heapPtr {
					return &trapError{Fn: callee.Name, Kind: "stack overflow"}
				}
				fn, blk, idx, ex.taken = int(d.tgt), callee.Entry, 0, true
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
				fn, blk, idx, ex.taken = fr.fn, fr.blk, fr.idx, true
				continue transfer
			}
		}
		if len(seg) < n {
			return fmt.Errorf("sim: step limit (%d) exceeded in %s", ex.limit, c.fn.Name)
		}
		return fmt.Errorf("sim: control ran off the end of %s block %d", c.fn.Name, blk)
	}
}

// inMem reports whether addr is a word a load or store may touch.
func (s *state) inMem(addr int64) bool { return addr > 0 && addr < int64(len(s.Mem)) }

// store writes v at addr, which must be in memory, extending the written
// windows.
func (s *state) store(addr int64, v uint64) {
	if addr >= s.Regs[1] {
		s.stackStart = min(s.stackStart, addr)
	} else {
		s.heapEnd = max(s.heapEnd, addr+1)
	}
	s.Mem[addr] = v
}

// memTrap is the trap a load or store (access) at a bad address raises.
func memTrap(fnName, access string, addr int64) error {
	return &trapError{Fn: fnName, Kind: fmt.Sprintf("bad %s address %d", access, addr)}
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

// execBlock executes a block's non-control instructions against the
// state, in order, through the same dispatch loop as Run: its control
// instructions decode as no-ops, since control effects lie outside a
// single block's semantics, and a return to the runtime ends it. It is
// the oracle for the scheduling semantics-preservation property: a block
// and its scheduled permutation must leave identical states.
func execBlock(st *state, b *ir.Block) error {
	code := make([]instr, len(b.Instrs)+1)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.IsBranchOp() {
			code[i].op = ir.NOP
			continue
		}
		d, err := decodeInstr(in, b, 1, 0)
		if err != nil {
			return fmt.Errorf("sim: block instruction %d (%v): %s", i, in, err)
		}
		code[i] = d
	}
	code[len(b.Instrs)].op = ir.BLR
	ex := &executor{
		code:     []fnCode{{fn: &ir.Fn{Name: "block"}, blocks: [][]instr{fuse(segments(code))}}},
		st:       st,
		res:      &Result{ExecCounts: [][]int64{{0}}},
		limit:    math.MaxInt64,
		nextPoll: math.MaxInt64,
	}
	return ex.callAndRun(0)
}
