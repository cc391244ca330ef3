package machine

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/ir"
)

// diffConfig adds more hazards (unpipelined system ops, guards) to the
// default block mix.
var diffConfig = func() blockgen.Config {
	c := blockgen.DefaultConfig
	c.HazardFrac = 0.2
	return c
}()

// diffProgram returns seed's sequence of blockgen blocks. Odd seeds move
// the integer working pool to virtual registers, so every register class
// the state keys by slot is exercised; guards restart at g0 in every
// block, so later blocks read guard ready times earlier blocks wrote.
func diffProgram(seed int64) [][]ir.Instr {
	r := rand.New(rand.NewSource(seed))
	blocks := make([][]ir.Instr, 1+r.Intn(6))
	for i := range blocks {
		blocks[i] = blockgen.Gen(r, diffConfig)
		if seed%2 == 0 {
			continue
		}
		for j := range blocks[i] {
			in := &blocks[i][j]
			for _, regs := range [][]ir.Reg{in.Defs, in.Uses} {
				for k, reg := range regs {
					if reg.Class == ir.ClassInt && reg.N >= 16 {
						regs[k].N += 100
					}
				}
			}
		}
	}
	return blocks
}

// timeline issues the blocks into one state the way the whole-program
// simulator does (a taken-branch bubble between blocks) and returns every
// start cycle followed by the makespan. issue is the path under test.
func timeline(m *Model, blocks [][]ir.Instr, issue func(s *IssueState, in *ir.Instr) int) []int {
	s := NewIssueState(m)
	var out []int
	for bi, b := range blocks {
		if bi > 0 {
			s.AdvanceTo(s.Cycle() + m.TakenBranchBubble)
		}
		for i := range b {
			out = append(out, issue(s, &b[i]))
		}
	}
	return append(out, s.Makespan())
}

func digestInts(xs []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestIssueTimelineGolden pins, per registered target, a digest of the
// start cycles and makespans Issue produces over 150 blockgen programs.
// The values were recorded from the original per-instruction issue model.
func TestIssueTimelineGolden(t *testing.T) {
	want := map[string]uint64{
		"mpc7410":     0x32587adcc144619d,
		"scalar603":   0x7d6d7d92e69961df,
		"scalar1":     0x702888a90c9995c6,
		"wide4":       0x4314757848e3bfbf,
		"test-narrow": 0x3d4b99583b69b61d,
	}
	for _, tg := range All() {
		h := fnv.New64a()
		var buf [8]byte
		for seed := int64(0); seed < 150; seed++ {
			got := timeline(tg.Model, diffProgram(seed), (*IssueState).Issue)
			binary.LittleEndian.PutUint64(buf[:], digestInts(got))
			h.Write(buf[:])
		}
		if w, ok := want[tg.Name]; ok && h.Sum64() != w {
			t.Errorf("%s: timeline digest %#x, want %#x", tg.Name, h.Sum64(), w)
		}
	}
}

// TestDecodedMatchesIssue is the differential test for the decoded path:
// on every target, decoding each program up front (as the simulator does
// when a run starts) and issuing the records gives the same start cycles
// and makespan as Issue, and EarliestStart agrees with where Issue puts
// each instruction.
func TestDecodedMatchesIssue(t *testing.T) {
	for _, tg := range All() {
		m := tg.Model
		for seed := int64(0); seed < 150; seed++ {
			blocks := diffProgram(seed)
			want := timeline(m, blocks, func(s *IssueState, in *ir.Instr) int {
				at := s.EarliestStart(in)
				if got := s.Issue(in); got != at {
					t.Fatalf("%s seed %d: %v issued at %d, EarliestStart said %d", tg.Name, seed, in, got, at)
				}
				return at
			})

			s := NewIssueState(m)
			decoded := make([][]Decoded, len(blocks))
			for bi, b := range blocks {
				for i := range b {
					decoded[bi] = append(decoded[bi], s.Decode(&b[i]))
				}
			}
			var got []int
			for bi := range decoded {
				if bi > 0 {
					s.AdvanceTo(s.Cycle() + m.TakenBranchBubble)
				}
				for i := range decoded[bi] {
					got = append(got, s.IssueDecoded(&decoded[bi][i]))
				}
			}
			got = append(got, s.Makespan())
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: decoded timeline %v, Issue timeline %v", tg.Name, seed, got, want)
			}
		}
	}
}

// TestDecodedSharesRegisterSlots checks that the two forms share one
// register table: a guard written through Issue is read by a record
// decoded later, and vice versa.
func TestDecodedSharesRegisterSlots(t *testing.T) {
	s := NewIssueState(NewMPC7410())
	check := ir.Instr{Op: ir.NULLCHECK, Defs: []ir.Reg{ir.Guard(7)}, Uses: []ir.Reg{ir.GPR(3)}}
	div := ir.Instr{Op: ir.DIVW, Defs: []ir.Reg{ir.Guard(7)}, Uses: []ir.Reg{ir.GPR(3), ir.GPR(4)}}
	load := ir.Instr{Op: ir.LD, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(3), ir.Guard(7)}}
	s.Issue(&check) // g7 ready at 1
	d := s.Decode(&load)
	if at := s.IssueDecoded(&d); at != 1 {
		t.Errorf("decoded load issued at %d, want 1 (after the guard)", at)
	}
	dd := s.Decode(&div)
	s.IssueDecoded(&dd) // IU1 divide issued at 1, g7 ready at 20
	if at := s.EarliestStart(&load); at != 20 {
		t.Errorf("load earliest start %d, want 20 (after the decoded write of g7)", at)
	}
}
