// Package codecache is a content-addressed cache of scheduling
// results. Entries are keyed by a fingerprint of a basic block's
// instruction content plus the machine model it was scheduled for, so a
// block that has been list-scheduled once — in any function, any program,
// any request — is never scheduled again: the cached instruction order is
// replayed instead.
//
// The cache is the storage layer of the compile service (internal/server):
// JIT-compiled code is highly repetitive (inlining and unrolling stamp out
// identical block bodies), and across requests whole programs recur, so a
// modest cache converts nearly all scheduling work into lookups.
//
// Design:
//
//   - Keys are 256-bit SHA-256 digests of the canonical block encoding
//     (fingerprint.go). Matching digests are trusted to mean matching
//     content, but every entry still records the instruction count of the
//     block it was computed from; a lookup whose block length disagrees is
//     rejected as a collision rather than replayed (a wrong-length
//     permutation would corrupt the block).
//   - Each cache is one size-bounded LRU (hash map + intrusive list)
//     under one mutex. The compile service keeps one cache per machine
//     target and reaches it only when a scheduling pass runs: a repeat
//     request replays its source's finished pass instead.
//   - Hits, misses, insertions, evictions, and collision rejections are
//     counted under the same mutex; the server exposes them at /metrics.
package codecache

import (
	"container/list"
	"sync"
)

// Entry is one cached scheduling result: what the list scheduler decided
// for a block with this content on this machine model.
type Entry struct {
	// NInstrs is the instruction count of the source block. Lookups
	// presenting a different count are rejected (fingerprint collision).
	NInstrs int
	// Order maps output position to original instruction index; empty
	// when the scheduled order equals the original order.
	Order []int32
	// CostBefore and CostAfter are the estimator makespans of the
	// original and scheduled orders.
	CostBefore int
	CostAfter  int
	// Changed reports whether scheduling reordered the block.
	Changed bool
}

// weight is the entry's approximate cache footprint in words, used for
// the size bound: one unit for the entry itself plus its order vector.
func (e *Entry) weight() int { return 1 + len(e.Order) }

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Lookup outcomes.
	Hits   int64
	Misses int64
	// Inserts counts successful Insert calls (not replays of an
	// already-present key).
	Inserts int64
	// Evictions counts entries dropped by the LRU size bound.
	Evictions int64
	// Collisions counts lookups rejected because the stored entry's
	// instruction count disagreed with the presented block.
	Collisions int64
	// Entries is the current entry count; Weight the current footprint
	// in words (Σ 1+len(Order)).
	Entries int
	Weight  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a content-addressed scheduled-block cache: one size-bounded
// LRU (hash map + intrusive list) under one mutex. The zero value is not
// usable; call New.
type Cache struct {
	mu        sync.Mutex
	entries   map[Key]*list.Element
	lru       list.List // front = most recent; values are *node
	weight    int
	maxWeight int

	hits, misses, inserts, evictions, collisions int64
}

type node struct {
	key   Key
	entry Entry
}

// New returns a cache bounded to approximately maxWeight words (Σ over
// entries of 1+len(Order)). maxWeight <= 0 selects a default sized for a
// few thousand typical blocks.
func New(maxWeight int) *Cache {
	if maxWeight <= 0 {
		maxWeight = 1 << 16
	}
	c := &Cache{entries: make(map[Key]*list.Element), maxWeight: maxWeight}
	c.lru.Init()
	return c
}

// Lookup returns the entry stored under k, if any. nInstrs is the
// instruction count of the block about to be scheduled; an entry whose
// recorded count disagrees is a fingerprint collision and reported as a
// miss (and counted separately).
func (c *Cache) Lookup(k Key, nInstrs int) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	n := el.Value.(*node)
	if n.entry.NInstrs != nInstrs {
		c.collisions++
		c.misses++
		return Entry{}, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return n.entry, true
}

// Insert stores e under k, evicting least-recently-used entries while
// the size bound is exceeded. Re-inserting an existing key refreshes its
// recency but keeps the first entry.
func (c *Cache) Insert(k Key, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&node{key: k, entry: e})
	c.weight += e.weight()
	c.inserts++
	for c.weight > c.maxWeight && c.lru.Len() > 1 {
		last := c.lru.Back()
		n := last.Value.(*node)
		c.lru.Remove(last)
		delete(c.entries, n.key)
		c.weight -= n.entry.weight()
		c.evictions++
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Inserts:    c.inserts,
		Evictions:  c.evictions,
		Collisions: c.collisions,
		Entries:    c.lru.Len(),
		Weight:     c.weight,
	}
}
