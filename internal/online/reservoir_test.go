package online

import (
	"bytes"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
)

// mkKey builds a distinct content key whose first byte (the holdout
// bucket selector) is chosen by the test.
func mkKey(first byte, n int) codecache.Key {
	var k codecache.Key
	k[0] = first
	k[1] = byte(n)
	k[2] = byte(n >> 8)
	return k
}

func mkSample(k codecache.Key, bbLen, costNS, costLS int) *Sample {
	var v features.Vector
	v[0] = float64(bbLen)
	return &Sample{
		Key:    hex.EncodeToString(k[:]),
		Fn:     "f",
		Feat:   v,
		CostNS: costNS,
		CostLS: costLS,
		Seen:   1,
	}
}

func TestReservoirDedupeAndBump(t *testing.T) {
	r := newReservoir(16)
	k := mkKey(1, 0)
	if r.Bump(k) {
		t.Fatal("Bump reported an absent key as present")
	}
	r.Add(k, mkSample(k, 5, 100, 50))
	r.Add(k, mkSample(k, 5, 100, 50)) // racing duplicate measurement
	if r.Len() != 1 {
		t.Fatalf("duplicate Add grew the reservoir: len %d", r.Len())
	}
	if !r.Bump(k) {
		t.Fatal("Bump missed a resident key")
	}
	snap := r.Snapshot()
	if snap[0].Seen != 3 { // 1 initial + 1 duplicate + 1 bump
		t.Fatalf("Seen = %d, want 3", snap[0].Seen)
	}
}

func TestReservoirBounded(t *testing.T) {
	r := newReservoir(4)
	for i := 0; i < 100; i++ {
		k := mkKey(1, i)
		r.Add(k, mkSample(k, 5, 100, 50))
	}
	if r.Len() != 4 {
		t.Fatalf("reservoir len %d, want cap 4", r.Len())
	}
	// Every resident's map index must still resolve to its own sample.
	for _, s := range r.Snapshot() {
		raw, err := hex.DecodeString(s.Key)
		if err != nil {
			t.Fatalf("bad resident key %q", s.Key)
		}
		var k codecache.Key
		copy(k[:], raw)
		if !r.Bump(k) {
			t.Fatalf("resident key %s not in index", s.Key)
		}
	}
}

func TestSnapshotSortedByKey(t *testing.T) {
	r := newReservoir(16)
	for _, first := range []byte{9, 3, 7, 1} {
		k := mkKey(first, 0)
		r.Add(k, mkSample(k, 5, 100, 50))
	}
	snap := r.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Key < snap[j].Key }) {
		t.Fatal("snapshot not sorted by content key")
	}
}

func TestSplitDeterministicBuckets(t *testing.T) {
	r := newReservoir(16)
	for i := 0; i < 4; i++ {
		k := mkKey(0, i) // 0 % 4 == 0 → holdout
		r.Add(k, mkSample(k, 5, 100, 50))
	}
	for i := 0; i < 8; i++ {
		k := mkKey(1, i) // 1 % 4 != 0 → train
		r.Add(k, mkSample(k, 5, 100, 50))
	}
	train, hold := split(r.Snapshot(), 4)
	if len(train) != 8 || len(hold) != 4 {
		t.Fatalf("split %d/%d, want 8/4", len(train), len(hold))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := newReservoir(16)
	for i := 0; i < 6; i++ {
		k := mkKey(byte(i), i)
		s := mkSample(k, 3+i, 100+i, 40+i)
		s.Seen = int64(i + 1)
		r.Add(k, s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := newReservoir(16)
	if err := r2.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), r2.Snapshot()) {
		t.Fatal("restored reservoir differs from original")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill", "mpc7410.jsonl")
	r := newReservoir(16)
	if err := r.LoadFile(path); err != nil {
		t.Fatalf("missing spill file must not error: %v", err)
	}
	k := mkKey(1, 0)
	r.Add(k, mkSample(k, 5, 100, 50))
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2 := newReservoir(16)
	if err := r2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), r2.Snapshot()) {
		t.Fatal("file round trip lost samples")
	}
}
