package codecache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"schedfilter/internal/ir"
)

// Key is a 256-bit content fingerprint. Two blocks with the same key are
// treated as identical (subject to the instruction-count collision guard
// in Lookup).
type Key [sha256.Size]byte

// hasher accumulates the canonical encoding of a block into a SHA-256
// digest. The encoding covers every field that influences scheduling:
// opcode, register operands, immediates, branch/call targets. Sym is
// excluded — it is a printing annotation with no semantic content.
type hasher struct {
	buf []byte
}

func (w *hasher) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *hasher) i64(v int64)   { w.u64(uint64(v)) }
func (w *hasher) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *hasher) reg(r ir.Reg)  { w.u64(uint64(r.Class)<<32 | uint64(uint32(r.N))) }

// instrsSize is the encoded size of instrs: five words per instruction
// (opcode, operand counts, Imm, FImm, Target) plus one per register.
func instrsSize(instrs []ir.Instr) int {
	n := 0
	for i := range instrs {
		n += 8 * (5 + len(instrs[i].Defs) + len(instrs[i].Uses))
	}
	return n
}

func (w *hasher) instr(in *ir.Instr) {
	w.u64(uint64(in.Op))
	w.u64(uint64(len(in.Defs))<<32 | uint64(len(in.Uses)))
	for _, d := range in.Defs {
		w.reg(d)
	}
	for _, u := range in.Uses {
		w.reg(u)
	}
	w.i64(in.Imm)
	w.f64(in.FImm)
	w.i64(int64(in.Target))
}

// BlockKey fingerprints one block's instruction content for scheduling on
// the named machine model. Blocks with equal instruction streams hash
// equally regardless of block ID, successors, or owning function — that
// is the point: the scheduler's output depends only on the instructions
// and the model.
func BlockKey(modelName string, instrs []ir.Instr) Key {
	w := hasher{buf: make([]byte, 0, len(modelName)+1+8+instrsSize(instrs))}
	w.buf = append(w.buf, modelName...)
	w.buf = append(w.buf, 0)
	w.u64(uint64(len(instrs)))
	for i := range instrs {
		w.instr(&instrs[i])
	}
	return sha256.Sum256(w.buf)
}

// ProgramKey fingerprints a whole program (plus the model and a context
// label such as the filter name): the hash of every function's every
// block in order. The server uses it to recognize identical compile
// inputs across requests.
func ProgramKey(modelName, context string, p *ir.Program) Key {
	size := len(modelName) + 1 + len(context) + 1 + 3*8
	for _, fn := range p.Fns {
		size += len(fn.Name) + 1 + 8
		for _, b := range fn.Blocks {
			size += 8 + instrsSize(b.Instrs)
		}
	}
	w := hasher{buf: make([]byte, 0, size)}
	w.buf = append(w.buf, modelName...)
	w.buf = append(w.buf, 0)
	w.buf = append(w.buf, context...)
	w.buf = append(w.buf, 0)
	w.u64(uint64(p.Entry))
	w.u64(uint64(p.Globals))
	w.u64(uint64(len(p.Fns)))
	for _, fn := range p.Fns {
		w.buf = append(w.buf, fn.Name...)
		w.buf = append(w.buf, 0)
		w.u64(uint64(len(fn.Blocks)))
		for _, b := range fn.Blocks {
			w.u64(uint64(len(b.Instrs)))
			for i := range b.Instrs {
				w.instr(&b.Instrs[i])
			}
		}
	}
	return sha256.Sum256(w.buf)
}
