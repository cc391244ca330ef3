package server

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"schedfilter/internal/codecache"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// Bounds of the compiled-program memo. An entry weighs its source length
// plus memoInstrBytes per machine instruction, a rough footprint of the
// JIT output, and least-recently-used entries are evicted past
// memoMaxBytes, so a flood of large request bodies cannot pin memory.
const (
	memoMaxBytes   = 4 << 20
	memoInstrBytes = 128
	// memoDoorSlots sizes the doorkeeper, a direct-mapped table of source
	// hashes. A source is stored only on its second sighting, so one-off
	// sources cost neither a copy nor retained memory.
	memoDoorSlots = 4096
)

// programMemo maps Jolt source text to its JIT-compiled program, so a
// repeat source skips Jolt compile, JIT and program fingerprinting. The
// JIT options are fixed per Server and compilation never sees the target,
// so the source alone is the key; Go compares the whole string on a hit.
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

// memoEntry is one memoized compilation. prog is the pristine copy: it is
// never scheduled or handed out, since the scheduling pass reorders blocks
// in place; callers work on clones.
type memoEntry struct {
	source string
	prog   *ir.Program
	bytes  int
	// fp is the program fingerprint last computed from prog.
	fp atomic.Pointer[memoFingerprint]
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
	for m.bytes > memoMaxBytes {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, old.source)
		m.bytes -= old.bytes
		m.evicted++
	}
	return e
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
