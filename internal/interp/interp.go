// Package interp executes bytecode modules directly. It is the semantic
// reference for the whole pipeline: the JIT-compiled machine code, run on
// the machine simulator, must produce exactly the outputs the interpreter
// produces (differential testing), under every scheduling protocol.
package interp

import (
	"fmt"
	"math"
	"strconv"

	"schedfilter/internal/bytecode"
)

// Result is what a program run produced.
type Result struct {
	// Ret is main's return value (the workload checksum).
	Ret int64
	// Output records each PRINTI/PRINTF in order, formatted as "i:<v>"
	// or "f:<v>".
	Output []string
	// Steps counts executed bytecode instructions.
	Steps int64
}

// runtimeError is a trap raised by the executed program (the bytecode
// analogue of a Java runtime exception).
type runtimeError struct {
	Fn   string
	PC   int
	Kind string
}

func (e *runtimeError) Error() string {
	return fmt.Sprintf("interp: %s at %s:%d", e.Kind, e.Fn, e.PC)
}

type array struct {
	ints   []int64
	floats []float64
}

type machine struct {
	m     *bytecode.Module
	glob  []uint64
	heap  []array // index 0 reserved as null
	out   []string
	steps int64
	limit int64
}

// Run verifies the module, then executes its main function. limit
// bounds the number of executed instructions (0 means a generous
// default).
func Run(m *bytecode.Module, limit int64) (*Result, error) {
	if limit <= 0 {
		limit = 1 << 32
	}
	if err := bytecode.Verify(m); err != nil {
		return nil, fmt.Errorf("interp: module invalid: %w", err)
	}
	entry, err := m.Main()
	if err != nil {
		return nil, err
	}
	vm := &machine{m: m, glob: make([]uint64, len(m.Globals)), heap: make([]array, 1), limit: limit}
	// Run the synthesized global-initializer function, if any, before
	// main (the bytecode has no data segment).
	if ii := m.FnIndex(bytecode.InitFnName); ii >= 0 {
		if _, err := vm.call(m.Fns[ii], nil); err != nil {
			return nil, err
		}
	}
	ret, err := vm.call(m.Fns[entry], nil)
	if err != nil {
		return nil, err
	}
	return &Result{Ret: int64(ret), Output: vm.out, Steps: vm.steps}, nil
}

func (vm *machine) trap(f *bytecode.Fn, pc int, kind string) error {
	return &runtimeError{Fn: f.Name, PC: pc, Kind: kind}
}

func (vm *machine) newArray(n int64, isFloat bool) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("interp: negative array size %d", n)
	}
	var a array
	if isFloat {
		a.floats = make([]float64, n)
	} else {
		a.ints = make([]int64, n)
	}
	vm.heap = append(vm.heap, a)
	return uint64(len(vm.heap) - 1), nil
}

func (vm *machine) arr(ref uint64, f *bytecode.Fn, pc int) (*array, error) {
	if ref == 0 || ref >= uint64(len(vm.heap)) {
		return nil, vm.trap(f, pc, "null pointer")
	}
	return &vm.heap[ref], nil
}

func (vm *machine) call(f *bytecode.Fn, args []uint64) (uint64, error) {
	locals := make([]uint64, len(f.Locals))
	copy(locals, args)
	stack := make([]uint64, 0, 16)

	pushI := func(v int64) { stack = append(stack, uint64(v)) }
	pushF := func(v float64) { stack = append(stack, math.Float64bits(v)) }
	popI := func() int64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return int64(v)
	}
	popF := func() float64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return math.Float64frombits(v)
	}

	pc := 0
	for {
		if vm.steps >= vm.limit {
			return 0, fmt.Errorf("interp: step limit (%d) exceeded in %s", vm.limit, f.Name)
		}
		vm.steps++
		in := f.Code[pc]
		switch in.Op {
		case bytecode.NOP:
		case bytecode.ICONST:
			pushI(in.I)
		case bytecode.FCONST:
			pushF(in.F)
		case bytecode.ILOAD:
			stack = append(stack, locals[in.A])
		case bytecode.FLOAD:
			stack = append(stack, locals[in.A])
		case bytecode.ISTORE, bytecode.FSTORE:
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case bytecode.GILOAD, bytecode.GFLOAD:
			stack = append(stack, vm.glob[in.A])
		case bytecode.GISTORE, bytecode.GFSTORE:
			vm.glob[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case bytecode.IADD:
			b := popI()
			pushI(popI() + b)
		case bytecode.ISUB:
			b := popI()
			pushI(popI() - b)
		case bytecode.IMUL:
			b := popI()
			pushI(popI() * b)
		case bytecode.IDIV:
			b := popI()
			a := popI()
			if b == 0 {
				return 0, vm.trap(f, pc, "divide by zero")
			}
			pushI(a / b)
		case bytecode.IREM:
			b := popI()
			a := popI()
			if b == 0 {
				return 0, vm.trap(f, pc, "divide by zero")
			}
			pushI(a % b)
		case bytecode.INEG:
			pushI(-popI())
		case bytecode.IAND:
			b := popI()
			pushI(popI() & b)
		case bytecode.IOR:
			b := popI()
			pushI(popI() | b)
		case bytecode.IXOR:
			b := popI()
			pushI(popI() ^ b)
		case bytecode.ISHL:
			b := popI()
			pushI(popI() << uint64(b&63))
		case bytecode.ISHR:
			b := popI()
			pushI(popI() >> uint64(b&63))
		case bytecode.FADD:
			b := popF()
			pushF(popF() + b)
		case bytecode.FSUB:
			b := popF()
			pushF(popF() - b)
		case bytecode.FMUL:
			b := popF()
			pushF(popF() * b)
		case bytecode.FDIV:
			b := popF()
			pushF(popF() / b)
		case bytecode.FNEG:
			pushF(-popF())
		case bytecode.I2F:
			pushF(float64(popI()))
		case bytecode.F2I:
			pushI(int64(popF()))
		case bytecode.IFICMPLT, bytecode.IFICMPGT, bytecode.IFICMPEQ,
			bytecode.IFICMPNE, bytecode.IFICMPLE, bytecode.IFICMPGE:
			b := popI()
			a := popI()
			if icmp(in.Op, a, b) {
				pc = int(in.A)
				continue
			}
		case bytecode.IFFCMPLT, bytecode.IFFCMPGT, bytecode.IFFCMPEQ,
			bytecode.IFFCMPNE, bytecode.IFFCMPLE, bytecode.IFFCMPGE:
			b := popF()
			a := popF()
			if fcmp(in.Op, a, b) {
				pc = int(in.A)
				continue
			}
		case bytecode.GOTO:
			pc = int(in.A)
			continue
		case bytecode.CALL:
			callee := vm.m.Fns[in.A]
			np := len(callee.Params)
			args := make([]uint64, np)
			copy(args, stack[len(stack)-np:])
			stack = stack[:len(stack)-np]
			ret, err := vm.call(callee, args)
			if err != nil {
				return 0, err
			}
			if callee.Ret != bytecode.TVoid {
				stack = append(stack, ret)
			}
		case bytecode.RET:
			return 0, nil
		case bytecode.IRET, bytecode.FRET:
			v := stack[len(stack)-1]
			return v, nil
		case bytecode.NEWARRI, bytecode.NEWARRF:
			n := popI()
			ref, err := vm.newArray(n, in.Op == bytecode.NEWARRF)
			if err != nil {
				return 0, err
			}
			stack = append(stack, ref)
		case bytecode.IALOAD:
			idx := popI()
			a, err := vm.arr(uint64(popI()), f, pc)
			if err != nil {
				return 0, err
			}
			if idx < 0 || idx >= int64(len(a.ints)) {
				return 0, vm.trap(f, pc, "index out of bounds")
			}
			pushI(a.ints[idx])
		case bytecode.FALOAD:
			idx := popI()
			a, err := vm.arr(uint64(popI()), f, pc)
			if err != nil {
				return 0, err
			}
			if idx < 0 || idx >= int64(len(a.floats)) {
				return 0, vm.trap(f, pc, "index out of bounds")
			}
			pushF(a.floats[idx])
		case bytecode.IASTORE:
			v := popI()
			idx := popI()
			a, err := vm.arr(uint64(popI()), f, pc)
			if err != nil {
				return 0, err
			}
			if idx < 0 || idx >= int64(len(a.ints)) {
				return 0, vm.trap(f, pc, "index out of bounds")
			}
			a.ints[idx] = v
		case bytecode.FASTORE:
			v := popF()
			idx := popI()
			a, err := vm.arr(uint64(popI()), f, pc)
			if err != nil {
				return 0, err
			}
			if idx < 0 || idx >= int64(len(a.floats)) {
				return 0, vm.trap(f, pc, "index out of bounds")
			}
			a.floats[idx] = v
		case bytecode.ALEN:
			a, err := vm.arr(uint64(popI()), f, pc)
			if err != nil {
				return 0, err
			}
			if a.ints != nil {
				pushI(int64(len(a.ints)))
			} else {
				pushI(int64(len(a.floats)))
			}
		case bytecode.POP, bytecode.FPOP:
			stack = stack[:len(stack)-1]
		case bytecode.DUP, bytecode.FDUP:
			stack = append(stack, stack[len(stack)-1])
		case bytecode.PRINTI:
			vm.out = append(vm.out, "i:"+strconv.FormatInt(popI(), 10))
		case bytecode.PRINTF:
			vm.out = append(vm.out, "f:"+strconv.FormatFloat(popF(), 'g', 12, 64))
		default:
			return 0, fmt.Errorf("interp: unknown opcode %v", in.Op)
		}
		pc++
	}
}

func icmp(op bytecode.Op, a, b int64) bool {
	switch op {
	case bytecode.IFICMPLT:
		return a < b
	case bytecode.IFICMPGT:
		return a > b
	case bytecode.IFICMPEQ:
		return a == b
	case bytecode.IFICMPNE:
		return a != b
	case bytecode.IFICMPLE:
		return a <= b
	case bytecode.IFICMPGE:
		return a >= b
	}
	panic("interp: not an int compare")
}

func fcmp(op bytecode.Op, a, b float64) bool {
	switch op {
	case bytecode.IFFCMPLT:
		return a < b
	case bytecode.IFFCMPGT:
		return a > b
	case bytecode.IFFCMPEQ:
		return a == b
	case bytecode.IFFCMPNE:
		return a != b
	case bytecode.IFFCMPLE:
		return a <= b
	case bytecode.IFFCMPGE:
		return a >= b
	}
	panic("interp: not a float compare")
}
