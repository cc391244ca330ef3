package server

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"schedfilter/internal/codecache"
	"schedfilter/internal/core"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
)

// Bounds of the compiled-program memo. An entry weighs its source length
// plus memoInstrBytes per machine instruction, a rough footprint of the
// JIT output, plus the block keys and pass records it stores, and
// least-recently-used entries are evicted past memoMaxBytes, so a flood of
// large request bodies, or of distinct policies, cannot pin memory.
const (
	memoMaxBytes   = 4 << 20
	memoInstrBytes = 128
	// A stored pass record weighs memoNodeBytes, its names,
	// memoBlockBytes per block struct, and memoInstrBytes per instruction
	// of each array the pass reordered; the others are the pristine ones.
	memoNodeBytes  = 64
	memoBlockBytes = 96
	// memoMaxPolicies bounds the pass records one entry stores per
	// target, so a lookup scans a short list even when a client cycles
	// through many policies on one source; a policy past the bound runs
	// its pass on every request, as for an unmemoized source.
	memoMaxPolicies = 16
	// memoDoorSlots sizes the doorkeeper, a table of source hashes, two
	// per slot so two sources that share a slot and alternate are both
	// admitted. A source is stored only on its second sighting, so one-off
	// sources cost neither a copy nor retained memory.
	memoDoorSlots = 4096
)

// programMemo maps Jolt source text to its JIT-compiled program and its
// finished scheduling passes, so a repeat source skips Jolt compile, JIT
// and scheduling. The JIT has one configuration and compilation never
// sees the target, so the source alone is the key; Go compares the whole
// string on a hit.
type programMemo struct {
	seed maphash.Seed

	mu      sync.Mutex
	door    [memoDoorSlots][2]uint64
	entries map[string]*list.Element // source → element holding its *memoEntry
	lru     list.List                // front is most recently used
	bytes   int
	hits    int64
	misses  int64
	evicted int64
}

// memoEntry is one memoized compilation. prog is the pristine copy, which
// no caller writes: readers take it as is, and a scheduling pass works on
// a blockCopy of it.
type memoEntry struct {
	source string
	prog   *ir.Program
	bytes  int // guarded by programMemo.mu
	// keys lists prog's block fingerprints, one set per model asked for.
	keys atomic.Pointer[memoBlockKeys]
	// passes lists the finished scheduling passes of prog, one per
	// (model, policy) pair served.
	passes atomic.Pointer[passRecord]
}

func newProgramMemo() *programMemo {
	return &programMemo{seed: maphash.MakeSeed(), entries: map[string]*list.Element{}}
}

// get returns the entry memoizing source, or nil, and counts the hit or
// miss.
func (m *programMemo) get(source string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[source]
	if !ok {
		m.misses++
		return nil
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// admit offers a freshly compiled program for source. On the source's
// first sighting it only records the sighting and returns nil, and the
// caller keeps prog. Otherwise it returns the source's entry, storing
// prog as the pristine copy unless a concurrent request stored one first;
// the caller must then only read the entry's program.
func (m *programMemo) admit(source string, prog *ir.Program) *memoEntry {
	h := maphash.String(m.seed, source)
	bytes := len(source) + memoInstrBytes*prog.NumInstrs()
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[source]; ok {
		return el.Value.(*memoEntry)
	}
	if ways := &m.door[h%memoDoorSlots]; ways[0] != h && ways[1] != h {
		ways[0], ways[1] = h, ways[0]
		return nil
	}
	if bytes > memoMaxBytes {
		return nil
	}
	e := &memoEntry{source: source, prog: prog, bytes: bytes}
	m.entries[source] = m.lru.PushFront(e)
	m.bytes += bytes
	m.evict()
	return e
}

// charge adds n bytes to the weight of e, if the memo still holds it, and
// evicts past the bound.
func (m *programMemo) charge(e *memoEntry, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[e.source]; !ok || el.Value != e {
		return
	}
	e.bytes += n
	m.bytes += n
	m.evict()
}

// evict drops least-recently-used entries until the memo is within its
// byte bound. The caller holds m.mu.
func (m *programMemo) evict() {
	for m.bytes > memoMaxBytes {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, old.source)
		m.bytes -= old.bytes
		m.evicted++
	}
}

// memoStats is a snapshot of the memo's counters.
type memoStats struct {
	hits, misses, evictions, bytes int64
}

func (m *programMemo) stats() memoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return memoStats{hits: m.hits, misses: m.misses, evictions: m.evicted, bytes: int64(m.bytes)}
}

// memoBlockKeys is one model's block fingerprints of a memoized program,
// linked to the sets of the other models asked for before it.
type memoBlockKeys struct {
	model string
	keys  []codecache.Key
	next  *memoBlockKeys
}

// blockKeys returns codecache.BlockKey under the model of every block of
// the pristine program, in program order, or nil for a nil entry. They
// are computed on the model's first request and their bytes charged to
// the entry's weight; a request that loses the race to store them
// computes them again later.
func (e *memoEntry) blockKeys(memo *programMemo, m *machine.Model) []codecache.Key {
	if e == nil {
		return nil
	}
	head := e.keys.Load()
	for k := head; k != nil; k = k.next {
		if k.model == m.Name {
			return k.keys
		}
	}
	keys := make([]codecache.Key, 0, e.prog.NumBlocks())
	for _, fn := range e.prog.Fns {
		for _, b := range fn.Blocks {
			keys = append(keys, codecache.BlockKey(m.Name, b.Instrs))
		}
	}
	if e.keys.CompareAndSwap(head, &memoBlockKeys{model: m.Name, keys: keys, next: head}) {
		memo.charge(e, len(keys)*len(codecache.Key{}))
	}
	return keys
}

// passRecord is one finished scheduling pass of a program under a
// (model, policy ID) pair: the program key, the pass's stats and the
// scheduled program, which no caller writes. A flight hands the leader's
// record, timings included, to its followers; a memoized source stores
// one per pair served, without timings, linked to the records of the
// pairs served before it.
type passRecord struct {
	model, policyID string
	key             codecache.Key
	st              core.Stats
	prog            *ir.Program
	next            *passRecord
}

// pass returns e's record under the model and policy ID, or nil. Two
// policies with one policy.ID, the identity the block cache and the
// flight already trust, share one record.
func (e *memoEntry) pass(model, policyID string) *passRecord {
	for r := e.passes.Load(); r != nil; r = r.next {
		if r.model == model && r.policyID == policyID {
			return r
		}
	}
	return nil
}

// storePass links a copy of r, a pass over a blockCopy of e's program,
// into e's records without its timings and charges it to e's weight,
// unless e holds one for r's pair or memoMaxPolicies for r's model. A
// record that loses the race to be stored is dropped.
func (e *memoEntry) storePass(memo *programMemo, r passRecord) {
	head := e.passes.Load()
	n := 0
	for o := head; o != nil; o = o.next {
		if o.model == r.model && o.policyID == r.policyID {
			return
		}
		if o.model == r.model {
			n++
		}
	}
	if n >= memoMaxPolicies {
		return
	}
	r.st.SchedTime, r.st.Phases = 0, sched.PhaseTimes{}
	r.next = head
	if e.passes.CompareAndSwap(head, &r) {
		memo.charge(e, r.bytes(e.prog))
	}
}

// bytes is what r weighs beyond the pristine program it was copied from.
func (r *passRecord) bytes(pristine *ir.Program) int {
	n := memoNodeBytes + len(r.model) + len(r.policyID) + memoBlockBytes*pristine.NumBlocks()
	for fi, fn := range r.prog.Fns {
		for bi, b := range fn.Blocks {
			if len(b.Instrs) > 0 && &b.Instrs[0] != &pristine.Fns[fi].Blocks[bi].Instrs[0] {
				n += memoInstrBytes * len(b.Instrs)
			}
		}
	}
	return n
}

// blockCopy returns a copy of p for a scheduling pass: fresh Fn and Block
// structs over p's instruction and successor arrays, cut with full slice
// expressions so an append reallocates. core.Apply writes a block only by
// pointing its Instrs at a new slice, so p stays as it was.
func blockCopy(p *ir.Program) *ir.Program {
	fns := make([]ir.Fn, len(p.Fns))
	fnPtrs := make([]*ir.Fn, len(p.Fns))
	blocks := make([]ir.Block, p.NumBlocks())
	blockPtrs := make([]*ir.Block, len(blocks))
	bi := 0
	for fi, f := range p.Fns {
		nf := &fns[fi]
		*nf = *f
		nf.Blocks = blockPtrs[bi : bi+len(f.Blocks) : bi+len(f.Blocks)]
		for i, b := range f.Blocks {
			nb := &blocks[bi]
			*nb = *b
			nb.Instrs = b.Instrs[:len(b.Instrs):len(b.Instrs)]
			nb.Succs = b.Succs[:len(b.Succs):len(b.Succs)]
			nf.Blocks[i] = nb
			bi++
		}
		fnPtrs[fi] = nf
	}
	return &ir.Program{Fns: fnPtrs, Entry: p.Entry, Globals: p.Globals}
}
