package bytecode

import (
	"fmt"
	"strings"
)

// Fn is one bytecode function.
type Fn struct {
	Name string
	// Params are the parameter types; at entry, params occupy the first
	// local slots in order.
	Params []Type
	// Ret is the return type (TVoid for none).
	Ret Type
	// Locals are the types of all local slots, including parameters.
	Locals []Type
	Code   []Insn
}

// Clone returns a deep copy of the function.
func (f *Fn) Clone() *Fn {
	nf := &Fn{Name: f.Name, Ret: f.Ret}
	nf.Params = append([]Type(nil), f.Params...)
	nf.Locals = append([]Type(nil), f.Locals...)
	nf.Code = append([]Insn(nil), f.Code...)
	return nf
}

func (f *Fn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	fmt.Fprintf(&b, ") %s  ; locals=%d\n", f.Ret, len(f.Locals))
	for i, in := range f.Code {
		fmt.Fprintf(&b, "%5d: %s\n", i, in)
	}
	return b.String()
}

// InitFnName names the function the front end synthesizes to store global
// initializers; runtimes execute it (if present) before main.
const InitFnName = "$init"

// Module is a compiled program: globals plus functions. Execution starts
// at the function named "main", which takes no parameters and returns int.
type Module struct {
	// Globals are the global slot types.
	Globals []Type
	Fns     []*Fn
}

// FnIndex returns the index of the named function, or -1.
func (m *Module) FnIndex(name string) int {
	for i, f := range m.Fns {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Main returns the entry function index or an error.
func (m *Module) Main() (int, error) {
	i := m.FnIndex("main")
	if i < 0 {
		return -1, fmt.Errorf("bytecode: module has no main function")
	}
	f := m.Fns[i]
	if len(f.Params) != 0 || f.Ret != TInt {
		return -1, fmt.Errorf("bytecode: main must be func main() int, got %d params returning %s", len(f.Params), f.Ret)
	}
	return i, nil
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	nm := &Module{Globals: append([]Type(nil), m.Globals...)}
	nm.Fns = make([]*Fn, len(m.Fns))
	for i, f := range m.Fns {
		nm.Fns[i] = f.Clone()
	}
	return nm
}

// NumInsns returns the total instruction count.
func (m *Module) NumInsns() int {
	n := 0
	for _, f := range m.Fns {
		n += len(f.Code)
	}
	return n
}

func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module: %d globals, %d functions\n", len(m.Globals), len(m.Fns))
	for _, f := range m.Fns {
		b.WriteString(f.String())
	}
	return b.String()
}
