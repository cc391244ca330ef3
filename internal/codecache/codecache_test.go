package codecache

import (
	"fmt"
	"sync"
	"testing"

	"schedfilter/internal/ir"
)

func testKey(i int) Key {
	// Distinct deterministic keys spread across shards.
	return BlockKey("test", []ir.Instr{{Op: ir.ADDI, Imm: int64(i)}})
}

func testEntry(n int) Entry {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(n - 1 - i)
	}
	return Entry{NInstrs: n, Order: order, CostBefore: 2 * n, CostAfter: n, Changed: true}
}

func TestLookupInsert(t *testing.T) {
	c := New(1 << 12)
	k := testKey(1)
	if _, ok := c.Lookup(k, 4); ok {
		t.Fatal("lookup on empty cache hit")
	}
	c.Insert(k, testEntry(4))
	e, ok := c.Lookup(k, 4)
	if !ok {
		t.Fatal("lookup after insert missed")
	}
	if e.NInstrs != 4 || len(e.Order) != 4 || e.Order[0] != 3 || !e.Changed {
		t.Fatalf("wrong entry back: %+v", e)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 insert / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestFingerprintDeterministicAndDiscriminating(t *testing.T) {
	a := []ir.Instr{ir.NewInstr(ir.ADD, []ir.Reg{ir.GPR(3)}, []ir.Reg{ir.GPR(4), ir.GPR(5)})}
	b := []ir.Instr{ir.NewInstr(ir.ADD, []ir.Reg{ir.GPR(3)}, []ir.Reg{ir.GPR(5), ir.GPR(4)})}
	if BlockKey("m", a) != BlockKey("m", a) {
		t.Fatal("fingerprint not deterministic")
	}
	if BlockKey("m", a) == BlockKey("m", b) {
		t.Fatal("operand order ignored by fingerprint")
	}
	if BlockKey("m1", a) == BlockKey("m2", a) {
		t.Fatal("model name ignored by fingerprint")
	}
	// Sym is a printing annotation and must not affect the key.
	withSym := a[0]
	withSym.Sym = "note"
	if BlockKey("m", a) != BlockKey("m", []ir.Instr{withSym}) {
		t.Fatal("Sym annotation changed the fingerprint")
	}
}

// A lookup whose block length disagrees with the stored entry must be
// rejected as a collision, not replayed onto the wrong-shaped block.
func TestCollisionRejected(t *testing.T) {
	c := New(1 << 12)
	k := testKey(7)
	c.Insert(k, testEntry(8))
	if _, ok := c.Lookup(k, 5); ok {
		t.Fatal("colliding lookup (different NInstrs) returned an entry")
	}
	st := c.Stats()
	if st.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", st.Collisions)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (collision counts as miss)", st.Misses)
	}
	// The stored entry survives and still serves correctly-shaped lookups.
	if _, ok := c.Lookup(k, 8); !ok {
		t.Fatal("original entry lost after collision rejection")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// Weight bound of 16*numShards words; entries weigh 1+8 words each, so
	// each shard holds at most one — inserting many distinct keys must
	// evict, and the total footprint must stay bounded.
	c := New(16 * numShards)
	const n = 500
	for i := 0; i < n; i++ {
		c.Insert(testKey(i), testEntry(8))
	}
	st := c.Stats()
	if st.Inserts != n {
		t.Fatalf("inserts = %d, want %d", st.Inserts, n)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.Weight > 16*numShards {
		t.Fatalf("weight %d exceeds bound %d", st.Weight, 16*numShards)
	}
	if st.Entries != int(st.Inserts-st.Evictions) {
		t.Fatalf("entries %d != inserts %d - evictions %d", st.Entries, st.Inserts, st.Evictions)
	}
}

func TestLRUOrder(t *testing.T) {
	// Two entries per shard fit; touch the older one, insert a third into
	// the same shard, and the untouched middle entry must be the victim.
	c := New(numShards * 4) // per-shard weight 4; entries weigh 2 (order len 1)
	mk := func(i int) (Key, Entry) {
		k := Key{} // force same shard (byte 0 = 0)
		k[1] = byte(i)
		return k, Entry{NInstrs: 1, Order: []int32{0}, CostBefore: 1, CostAfter: 1}
	}
	k1, e1 := mk(1)
	k2, e2 := mk(2)
	k3, e3 := mk(3)
	c.Insert(k1, e1)
	c.Insert(k2, e2)
	if _, ok := c.Lookup(k1, 1); !ok { // refresh k1
		t.Fatal("k1 missing")
	}
	c.Insert(k3, e3) // over budget: evict LRU = k2
	if _, ok := c.Lookup(k2, 1); ok {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	if _, ok := c.Lookup(k1, 1); !ok {
		t.Fatal("recently-used k1 evicted")
	}
	if _, ok := c.Lookup(k3, 1); !ok {
		t.Fatal("new k3 evicted")
	}
}

func TestReset(t *testing.T) {
	c := New(1 << 12)
	c.Insert(testKey(1), testEntry(3))
	c.Lookup(testKey(1), 3)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len after reset = %d", c.Len())
	}
	if st := c.Stats(); st.Hits != 0 || st.Entries != 0 || st.Weight != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// Concurrent mixed read/write load under -race: goroutines hammer a small
// cache (forcing constant eviction) with interleaved lookups and inserts,
// then the counters must reconcile.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New(64 * numShards)
	const (
		workers = 8
		ops     = 2000
		keys    = 300
	)
	precomputed := make([]Key, keys)
	for i := range precomputed {
		precomputed[i] = testKey(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := uint32(seed*2654435761 + 1)
			for i := 0; i < ops; i++ {
				rng = rng*1664525 + 1013904223
				ki := int(rng % keys)
				n := 4 + ki%5
				if e, ok := c.Lookup(precomputed[ki], n); ok {
					if e.NInstrs != n || len(e.Order) != n {
						panic(fmt.Sprintf("corrupt entry for key %d: %+v", ki, e))
					}
				} else {
					c.Insert(precomputed[ki], testEntry(n))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*ops {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*ops)
	}
	if st.Entries != int(st.Inserts-st.Evictions) {
		t.Fatalf("entries %d != inserts %d - evictions %d", st.Entries, st.Inserts, st.Evictions)
	}
	if st.Weight > 64*numShards {
		t.Fatalf("weight %d exceeds bound", st.Weight)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(1 << 16)
	k := testKey(1)
	c.Insert(k, testEntry(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(k, 8)
	}
}

// benchBlock is a 16-instruction block of three-register adds.
func benchBlock() []ir.Instr {
	instrs := make([]ir.Instr, 16)
	for i := range instrs {
		instrs[i] = ir.NewInstr(ir.ADD, []ir.Reg{ir.GPR(i)}, []ir.Reg{ir.GPR(i + 1), ir.GPR(i + 2)})
	}
	return instrs
}

func BenchmarkBlockKey(b *testing.B) {
	instrs := benchBlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BlockKey("MPC7410", instrs)
	}
}
