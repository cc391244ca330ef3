package bytecode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary wire format: a fixed magic/version header, the global slot types,
// then each function with name, signature, local types, and code. All
// multi-byte values are little-endian; instructions are a fixed 13 bytes
// (op, operand, immediate).

var magic = [4]byte{'J', 'Z', 'B', 'C'}

const formatVersion = 1

// Encode writes the module to w.
func Encode(w io.Writer, m *Module) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	wu32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	wu32(formatVersion)
	wu32(uint32(len(m.Globals)))
	for _, g := range m.Globals {
		bw.WriteByte(byte(g))
	}
	wu32(uint32(len(m.Fns)))
	for _, f := range m.Fns {
		wu32(uint32(len(f.Name)))
		bw.WriteString(f.Name)
		bw.WriteByte(byte(f.Ret))
		wu32(uint32(len(f.Params)))
		for _, p := range f.Params {
			bw.WriteByte(byte(p))
		}
		wu32(uint32(len(f.Locals)))
		for _, l := range f.Locals {
			bw.WriteByte(byte(l))
		}
		wu32(uint32(len(f.Code)))
		for _, in := range f.Code {
			bw.WriteByte(byte(in.Op))
			binary.Write(bw, binary.LittleEndian, in.A)
			if in.Op == FCONST {
				binary.Write(bw, binary.LittleEndian, math.Float64bits(in.F))
			} else {
				binary.Write(bw, binary.LittleEndian, uint64(in.I))
			}
		}
	}
	return bw.Flush()
}

// Decode reads a module in the Encode format and verifies it.
func Decode(r io.Reader) (*Module, error) {
	br := bufio.NewReader(r)
	var got [4]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("bytecode: reading magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("bytecode: bad magic %q", got[:])
	}
	ru32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	ver, err := ru32()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("bytecode: unsupported version %d", ver)
	}
	const limit = 1 << 24 // sanity cap on counts
	rcount := func(what string) (int, error) {
		v, err := ru32()
		if err != nil {
			return 0, fmt.Errorf("bytecode: reading %s count: %w", what, err)
		}
		if v > limit {
			return 0, fmt.Errorf("bytecode: implausible %s count %d", what, v)
		}
		return int(v), nil
	}
	// Slices grow as their elements are read, never from a count alone,
	// so a short input cannot make Decode allocate more than a small
	// multiple of its own length.
	rtypes := func(n int) ([]Type, error) {
		var out []Type
		for range n {
			b, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if Type(b) > TFloatArr {
				return nil, fmt.Errorf("bytecode: bad type byte %d", b)
			}
			out = append(out, Type(b))
		}
		return out, nil
	}

	m := &Module{}
	ng, err := rcount("global")
	if err != nil {
		return nil, err
	}
	if m.Globals, err = rtypes(ng); err != nil {
		return nil, err
	}
	nf, err := rcount("function")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nf; i++ {
		f := &Fn{}
		nameLen, err := rcount("name")
		if err != nil {
			return nil, err
		}
		name, err := io.ReadAll(io.LimitReader(br, int64(nameLen)))
		if err != nil {
			return nil, err
		}
		if len(name) < nameLen {
			return nil, io.ErrUnexpectedEOF
		}
		f.Name = string(name)
		rb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		f.Ret = Type(rb)
		np, err := rcount("param")
		if err != nil {
			return nil, err
		}
		if f.Params, err = rtypes(np); err != nil {
			return nil, err
		}
		nl, err := rcount("local")
		if err != nil {
			return nil, err
		}
		if f.Locals, err = rtypes(nl); err != nil {
			return nil, err
		}
		nc, err := rcount("code")
		if err != nil {
			return nil, err
		}
		for range nc {
			op, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if Op(op) >= numOps {
				return nil, fmt.Errorf("bytecode: bad opcode %d", op)
			}
			var a int32
			if err := binary.Read(br, binary.LittleEndian, &a); err != nil {
				return nil, err
			}
			var raw uint64
			if err := binary.Read(br, binary.LittleEndian, &raw); err != nil {
				return nil, err
			}
			in := Insn{Op: Op(op), A: a}
			if in.Op == FCONST {
				in.F = math.Float64frombits(raw)
			} else {
				in.I = int64(raw)
			}
			f.Code = append(f.Code, in)
		}
		m.Fns = append(m.Fns, f)
	}
	if err := Verify(m); err != nil {
		return nil, fmt.Errorf("bytecode: decoded module fails verification: %w", err)
	}
	return m, nil
}
