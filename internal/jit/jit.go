package jit

import (
	"fmt"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/ir"
)

// Options configure a compilation. The zero value is the paper's OptOpt
// configuration (section 3.1): aggressive bytecode inlining under the
// limits in inline.go.
type Options struct {
	// NoInline turns the bytecode inliner off, so the lowering sees the
	// module as written.
	NoInline bool
}

// Compile verifies a bytecode module and translates it into machine IR,
// refusing a malformed module with an error. The resulting program has physical registers everywhere (except scheduling
// guards) and is ready for the scheduling protocols and the simulator.
func Compile(mod *bytecode.Module, opts Options) (*ir.Program, error) {
	if !opts.NoInline {
		// Without inlining, front's check of mod is the input check.
		if err := bytecode.Verify(mod); err != nil {
			return nil, fmt.Errorf("jit: input module invalid: %w", err)
		}
	}
	work, shapes, err := front(mod, opts)
	if err != nil {
		return nil, err
	}
	prog := &ir.Program{Globals: len(work.Globals)}
	for fi := range work.Fns {
		mfn, err := compileFn(work, fi, shapes[fi])
		if err != nil {
			return nil, err
		}
		prog.Fns = append(prog.Fns, mfn)
	}
	entry, err := work.Main()
	if err != nil {
		return nil, err
	}
	prog.Entry = entry
	return prog, nil
}

// CompileFn recompiles the single named function through the same
// pipeline as Compile (inlining, lowering, register allocation) and
// returns its machine code — the per-function entry point the adaptive
// optimization system's background compiler uses. With
// inlining on, the input module is not re-verified: Compile already
// verified it when the baseline tier was built.
func CompileFn(mod *bytecode.Module, name string, opts Options) (*ir.Fn, error) {
	fi := mod.FnIndex(name)
	if fi < 0 {
		return nil, fmt.Errorf("jit: no function named %q", name)
	}
	work, shapes, err := front(mod, opts)
	if err != nil {
		return nil, err
	}
	return compileFn(work, fi, shapes[fi])
}

// front returns the module the lowering reads, with every function's entry
// stack shapes from one verifier pass over that module. With inlining on,
// that is an inlined copy of mod and the pass is the post-inline check;
// otherwise it is mod itself, which the lowering only reads.
func front(mod *bytecode.Module, opts Options) (*bytecode.Module, []map[int][]bytecode.Type, error) {
	if opts.NoInline {
		shapes, err := bytecode.VerifyShapes(mod)
		if err != nil {
			return nil, nil, fmt.Errorf("jit: input module invalid: %w", err)
		}
		return mod, shapes, nil
	}
	work := mod.Clone()
	inline(work)
	// Inlining bugs surface here rather than as bad machine code.
	shapes, err := bytecode.VerifyShapes(work)
	if err != nil {
		return nil, nil, fmt.Errorf("jit: module invalid after inlining: %w", err)
	}
	return work, shapes, nil
}

// compileFn lowers function fi of m and allocates its registers.
func compileFn(m *bytecode.Module, fi int, shapes map[int][]bytecode.Type) (*ir.Fn, error) {
	mfn, err := lowerFn(m, m.Fns[fi], shapes)
	if err != nil {
		return nil, err
	}
	if err := allocate(mfn); err != nil {
		return nil, err
	}
	return mfn, nil
}
