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
	"schedfilter/internal/policy"
)

// Bounds of the compiled-program memo. An entry weighs its source length
// plus memoInstrBytes per machine instruction, a rough footprint of the
// JIT output, plus the block keys and decision vectors it stores, and
// least-recently-used entries are evicted past memoMaxBytes, so a flood of
// large request bodies, or of distinct policies, cannot pin memory.
const (
	memoMaxBytes   = 4 << 20
	memoInstrBytes = 128
	// memoNodeBytes is what a stored decision vector weighs beyond its
	// policy ID and one byte per block: its list node and their headers.
	memoNodeBytes = 64
	// memoMaxPolicies bounds the decision vectors one entry stores, so a
	// lookup scans a short list even when a client cycles through many
	// policies on one source; a policy past the bound is decided on every
	// request, as an unmemoized source is.
	memoMaxPolicies = 16
	// memoDoorSlots sizes the doorkeeper, a direct-mapped table of source
	// hashes. A source is stored only on its second sighting, so one-off
	// sources cost neither a copy nor retained memory.
	memoDoorSlots = 4096
)

// programMemo maps Jolt source text to its JIT-compiled program, so a
// repeat source skips Jolt compile, JIT and program fingerprinting. The
// JIT has one configuration and compilation never sees the target, so
// the source alone is the key; Go compares the whole string on a hit.
type programMemo struct {
	seed maphash.Seed

	mu      sync.Mutex
	door    [memoDoorSlots]uint64
	entries map[string]*list.Element // source → element holding its *memoEntry
	lru     list.List                // front is most recently used
	bytes   int
	hits    int64
	misses  int64
	evicted int64
}

// memoEntry is one memoized compilation. prog is the pristine copy, which
// no caller writes: readers take it as is, and the scheduling pass, which
// points approved blocks at reordered instruction slices, works on the
// copy schedCopy returns.
type memoEntry struct {
	source string
	prog   *ir.Program
	bytes  int // guarded by programMemo.mu
	// fp is the program fingerprint last computed from prog.
	fp atomic.Pointer[memoFingerprint]
	// keys lists prog's block fingerprints, one set per model asked for.
	keys atomic.Pointer[memoBlockKeys]
	// decs lists prog's decision vectors, one per policy ID served.
	decs atomic.Pointer[memoDecisions]
}

type memoFingerprint struct {
	model, policyID string
	key             codecache.Key
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
// the caller must then work on a clone of the entry's program.
func (m *programMemo) admit(source string, prog *ir.Program) *memoEntry {
	h := maphash.String(m.seed, source)
	bytes := len(source) + memoInstrBytes*prog.NumInstrs()
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[source]; ok {
		return el.Value.(*memoEntry)
	}
	if slot := &m.door[h%memoDoorSlots]; *slot != h {
		*slot = h
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

// key returns the pristine program's fingerprint under the model and
// policy identity, reusing the last one computed when both match. The
// fingerprint is a pure function of the program and that pair, so a
// reused key is byte-identical to a fresh codecache.ProgramKey.
func (e *memoEntry) key(m *machine.Model, policyID string) codecache.Key {
	if fp := e.fp.Load(); fp != nil && fp.model == m.Name && fp.policyID == policyID {
		return fp.key
	}
	fp := &memoFingerprint{model: m.Name, policyID: policyID,
		key: codecache.ProgramKey(m.Name, policyID, e.prog)}
	e.fp.Store(fp)
	return fp.key
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

// memoDecisions is one policy's decision vector over a memoized
// program, linked to the vectors of the policies served before it.
type memoDecisions struct {
	policyID string
	schedule []bool
	next     *memoDecisions
}

// decisions returns f's decision for every block of the pristine program,
// in program order, as core.Decide gives them. policyID is policy.ID(f),
// the identity the block cache and the flight already trust, so two
// policies with one ID share one vector. The vector is built the first
// time the entry is served under the policy and stored, up to
// memoMaxPolicies per entry, with its bytes plus memoNodeBytes charged to
// the entry's weight; a request that loses the race to store it builds it
// again later.
func (e *memoEntry) decisions(memo *programMemo, f policy.Policy, policyID string) []bool {
	head := e.decs.Load()
	n := 0
	for d := head; d != nil; d = d.next {
		if d.policyID == policyID {
			return d.schedule
		}
		n++
	}
	dec := core.Decide(e.prog, f)
	if n < memoMaxPolicies && e.decs.CompareAndSwap(head, &memoDecisions{policyID: policyID, schedule: dec, next: head}) {
		memo.charge(e, memoNodeBytes+len(policyID)+len(dec))
	}
	return dec
}

// schedCopy returns the program the scheduling pass runs on under the
// decision vector dec: fresh Fn structs whose blocks are the pristine
// pointers, except that a block dec approves gets a fresh Block struct
// over the pristine instruction and successor arrays, cut with full slice
// expressions so an append reallocates. core.Apply writes only the blocks
// it schedules, so sharing the rest is safe, and a vector that approves
// nothing gets the pristine program itself. The copy costs five
// allocations whatever the program's size.
func (e *memoEntry) schedCopy(dec []bool) *ir.Program {
	p := e.prog
	approved := 0
	for _, yes := range dec {
		if yes {
			approved++
		}
	}
	if approved == 0 {
		return p
	}
	fns := make([]ir.Fn, len(p.Fns))
	fnPtrs := make([]*ir.Fn, len(p.Fns))
	blockPtrs := make([]*ir.Block, len(dec))
	blocks := make([]ir.Block, approved)
	bi := 0
	for fi, f := range p.Fns {
		nf := &fns[fi]
		*nf = *f
		nf.Blocks = blockPtrs[bi : bi+len(f.Blocks) : bi+len(f.Blocks)]
		for i, b := range f.Blocks {
			nf.Blocks[i] = b
			if dec[bi] {
				nb := &blocks[0]
				blocks = blocks[1:]
				*nb = *b
				nb.Instrs = b.Instrs[:len(b.Instrs):len(b.Instrs)]
				nb.Succs = b.Succs[:len(b.Succs):len(b.Succs)]
				nf.Blocks[i] = nb
			}
			bi++
		}
		fnPtrs[fi] = nf
	}
	return &ir.Program{Fns: fnPtrs, Entry: p.Entry, Globals: p.Globals}
}
