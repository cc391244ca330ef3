package online

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
)

// Sample is one harvested training instance: a block's cheap static
// features plus the simplified timing estimator's cost for the original
// order (CostNS) and the list-scheduled order (CostLS) — the same raw
// instance internal/training collects from the benchmark suites, here
// taken from live traffic. Seen weights the instance by how many times
// the serving path compiled a block with this content.
type Sample struct {
	// Key is the hex content fingerprint of the block (model + instrs),
	// the deduplication identity.
	Key string `json:"key"`
	// Fn records the function name of the first sighting (provenance
	// only; identical content in other functions dedupes onto it).
	Fn string `json:"fn,omitempty"`
	// Feat is the paper's Table-1 feature vector.
	Feat features.Vector `json:"feat"`
	// CostNS and CostLS are the estimator makespans of the original and
	// list-scheduled orders.
	CostNS int `json:"cost_ns"`
	CostLS int `json:"cost_ls"`
	// Seen counts sightings of this content (the instance's weight in
	// shadow evaluation).
	Seen int64 `json:"seen"`
}

// Holdout reports whether the sample belongs to the shadow-evaluation
// holdout slice: a deterministic 1/k bucket of the content-hash space,
// so the split is stable across restarts, spills, and processes.
func (s *Sample) Holdout(k int) bool {
	if k <= 1 || len(s.Key) < 2 {
		return false
	}
	var b byte
	if raw, err := hex.DecodeString(s.Key[:2]); err == nil {
		b = raw[0]
	}
	return int(b)%k == 0
}

// Reservoir is a bounded, deduplicated store of Samples for one machine
// target. Unique blocks are admitted until the cap; after that each new
// unique block displaces a uniformly random resident (classic reservoir
// sampling), so the store stays an unbiased sample of the unique-block
// stream. Safe for concurrent use.
type Reservoir struct {
	mu      sync.Mutex
	cap     int
	byKey   map[codecache.Key]int // key → index into samples
	samples []*Sample
	stream  int64 // unique-block admissions attempted (reservoir clock)
	rng     *rand.Rand
}

// newReservoir returns a reservoir bounded to cap unique samples
// (cap <= 0 selects 4096). The displacement stream is deterministically
// seeded: two reservoirs fed the same sequence hold the same samples.
func newReservoir(cap int) *Reservoir {
	if cap <= 0 {
		cap = 4096
	}
	return &Reservoir{
		cap:   cap,
		byKey: make(map[codecache.Key]int),
		rng:   rand.New(rand.NewSource(1)),
	}
}

// Bump increments the weight of the sample stored under k, if any, and
// reports whether it was present. This is the serving path's fast path:
// one map probe per already-known block.
func (r *Reservoir) Bump(k codecache.Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byKey[k]
	if ok {
		r.samples[i].Seen++
	}
	return ok
}

// Add inserts a measured sample under k. If the key is already present
// the resident sample's weight is bumped instead (two in-flight
// measurements of the same content race harmlessly). At capacity the new
// sample displaces a random resident with probability cap/stream.
func (r *Reservoir) Add(k codecache.Key, s *Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byKey[k]; ok {
		r.samples[i].Seen += s.Seen
		return
	}
	r.stream++
	if len(r.samples) < r.cap {
		r.byKey[k] = len(r.samples)
		r.samples = append(r.samples, s)
		return
	}
	j := r.rng.Int63n(r.stream)
	if j >= int64(r.cap) {
		return // not sampled; stream position consumed
	}
	old := r.samples[j]
	var oldKey codecache.Key
	raw, err := hex.DecodeString(old.Key)
	if err != nil || len(raw) != len(oldKey) {
		// Unparseable resident key (corrupt spill); drop it anyway.
		for kk, idx := range r.byKey {
			if idx == int(j) {
				oldKey = kk
				break
			}
		}
	} else {
		copy(oldKey[:], raw)
	}
	delete(r.byKey, oldKey)
	r.byKey[k] = int(j)
	r.samples[j] = s
}

// Len returns the number of unique samples held.
func (r *Reservoir) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Snapshot returns a copy of the reservoir's samples sorted by content
// key. The sort makes everything downstream — labelling, induction,
// shadow scores — a pure function of reservoir *content*, independent of
// arrival order: identical reservoirs yield bit-identical rule lists.
func (r *Reservoir) Snapshot() []*Sample {
	r.mu.Lock()
	out := make([]*Sample, len(r.samples))
	for i, s := range r.samples {
		cp := *s
		out[i] = &cp
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// split partitions a snapshot into the training slice and the holdout
// slice by the samples' deterministic content-hash bucket.
func split(snap []*Sample, holdoutK int) (train, hold []*Sample) {
	for _, s := range snap {
		if s.Holdout(holdoutK) {
			hold = append(hold, s)
		} else {
			train = append(train, s)
		}
	}
	return
}

// WriteJSONL spills the reservoir as one JSON sample per line, sorted by
// key (the canonical, diff-friendly order).
func (r *Reservoir) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL restores samples spilled by WriteJSONL into the reservoir
// (merging with whatever it already holds; duplicate keys bump weights).
func (r *Reservoir) ReadJSONL(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var s Sample
		if err := json.Unmarshal(text, &s); err != nil {
			return fmt.Errorf("online: spill line %d: %w", line, err)
		}
		raw, err := hex.DecodeString(s.Key)
		var k codecache.Key
		if err != nil || len(raw) != len(k) {
			return fmt.Errorf("online: spill line %d: bad key %q", line, s.Key)
		}
		copy(k[:], raw)
		if s.Seen <= 0 {
			s.Seen = 1
		}
		cp := s
		r.Add(k, &cp)
	}
	return sc.Err()
}

// SaveFile atomically writes the reservoir's JSONL spill to path
// (temp file + rename).
func (r *Reservoir) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := r.WriteJSONL(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile restores a spill written by SaveFile. A missing file is not
// an error (first boot).
func (r *Reservoir) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	return r.ReadJSONL(f)
}
