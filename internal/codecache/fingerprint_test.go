package codecache

import (
	"encoding/hex"
	"testing"

	"schedfilter/internal/ir"
)

// pinnedBlock covers every field the encoding reads: defs, uses of both
// register classes, an integer and a float immediate, a branch target,
// and a Sym the encoding must ignore.
func pinnedBlock() []ir.Instr {
	return []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: -7},
		{Op: ir.LD, Defs: []ir.Reg{ir.GPR(4)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: 16, Sym: "x"},
		{Op: ir.FADD, Defs: []ir.Reg{ir.FPR(1)}, Uses: []ir.Reg{ir.FPR(2), ir.FPR(3)}, FImm: 2.5},
		{Op: ir.BC, Uses: []ir.Reg{ir.CR(0)}, Imm: 1, Target: 2},
	}
}

// TestFingerprintsPinned pins the exact digests of one block and one
// program: a change to the encoding (or to how its buffer is built)
// must not move a key, or every cached block and memoized program key
// silently changes identity.
func TestFingerprintsPinned(t *testing.T) {
	instrs := pinnedBlock()
	prog := &ir.Program{
		Entry:   1,
		Globals: 3,
		Fns: []*ir.Fn{
			{Name: "f", Blocks: []*ir.Block{{Instrs: instrs[:2]}, {Instrs: instrs[2:]}}},
			{Name: "main", Blocks: []*ir.Block{{Instrs: instrs}, {}}},
		},
	}
	for _, c := range []struct {
		name string
		key  Key
		want string
	}{
		{"BlockKey", BlockKey("MPC7410", instrs),
			"5be8d6109da9e63040b2042617972cd6774f60fbbc294a6d7bf5e4d2468d71d0"},
		{"ProgramKey", ProgramKey("MPC7410", "L/N t=20@0123456789abcdef", prog),
			"3ba8e66fc199f78eece8edda8e08106b1452e4c5692a2920c385fb91fd447e80"},
	} {
		if got := hex.EncodeToString(c.key[:]); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBlockKeyAllocs checks that the encoding buffer is sized from the
// instructions it encodes: one allocation per key, never a regrowth.
func TestBlockKeyAllocs(t *testing.T) {
	instrs := benchBlock()
	if n := testing.AllocsPerRun(100, func() { BlockKey("MPC7410", instrs) }); n != 1 {
		t.Fatalf("BlockKey: %v allocs per key, want 1", n)
	}
	prog := &ir.Program{Fns: []*ir.Fn{{Name: "main", Blocks: []*ir.Block{{Instrs: instrs}, {Instrs: pinnedBlock()}}}}}
	if n := testing.AllocsPerRun(100, func() { ProgramKey("MPC7410", "ls", prog) }); n != 1 {
		t.Fatalf("ProgramKey: %v allocs per key, want 1", n)
	}
}
