package bytecode

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func encode(t testing.TB, m *Module) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hugeCodeCount is a 33-byte module whose one function claims 2^24
// instructions, the largest count Decode accepts, and holds none.
func hugeCodeCount() []byte {
	b := append([]byte(nil), magic[:]...)
	// version, globals, functions, name length
	for _, v := range []uint32{formatVersion, 0, 1, 0} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = append(b, byte(TInt)) // return type
	// params, locals, code
	for _, v := range []uint32{0, 0, 1 << 24} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// A count is a claim, not data: Decode must not allocate for elements
// the input does not hold.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	in := hugeCodeCount()
	if len(in) != 33 {
		t.Fatalf("input is %d bytes, want 33", len(in))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := Decode(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || m != nil {
		t.Fatalf("Decode accepted a truncated module: %v, %v", m, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Decode allocated %d bytes for a %d-byte input, want under 1 MiB", got, len(in))
	}
}

// FuzzDecode feeds arbitrary bytes to Decode, the reader of module files
// that joltrun loads. Decode must not panic, must refuse with an error
// and no module, and a module it accepts must encode to bytes that
// decode to the same module. Two modules are the same when they encode
// to the same bytes: Encode writes every field Decode sets, and a NaN
// constant stays equal to itself.
func FuzzDecode(f *testing.F) {
	valid := validModule(f)
	fl := NewBuilder("fstuff", nil, TFloat)
	fl.FConst(3.14159).Emit(FRET)
	withFloat := validModule(f)
	withFloat.Globals = []Type{TInt, TFloat, TIntArr}
	withFloat.Fns = append(withFloat.Fns, fl.MustFinish())
	for _, m := range []*Module{valid, withFloat} {
		b := encode(f, m)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(hugeCodeCount())
	f.Add([]byte("BOGUS123"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned a module along with %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("Decode returned neither a module nor an error")
		}
		re := encode(t, m)
		back, err := Decode(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("accepted module does not decode after encoding: %v\n%s", err, m)
		}
		if got := encode(t, back); !bytes.Equal(got, re) {
			t.Fatalf("round trip changed the module:\n%s\nvs\n%s", m, back)
		}
	})
}
