package codecache

import (
	"fmt"
	"sync"
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// The compile server keeps one cache instance per machine target and
// serves all of them from one worker pool, so cross-target traffic races
// by construction. This pins, under -race, that concurrent mixed load
// against every target's cache at once stays isolated — a block inserted
// under one target's key is never visible through another's — and that
// every cache honours its weight bound while being hammered.
func TestConcurrentCrossTargetIsolation(t *testing.T) {
	targets := machine.All()
	if len(targets) < 2 {
		t.Skip("needs at least two registered targets")
	}
	caches := make(map[string]*Cache, len(targets))
	// 32 entries of 3 words each: the 64 blocks below overflow it, so
	// every cache evicts while it is hammered.
	const bound = 96
	for _, tgt := range targets {
		caches[tgt.Model.Name] = New(bound)
	}

	// One shared content set: the same blocks compiled for every target,
	// exactly the aliasing pattern that would corrupt results if keys
	// leaked across targets.
	const blocks = 64
	instrs := make([][]ir.Instr, blocks)
	for i := range instrs {
		instrs[i] = []ir.Instr{
			{Op: ir.LD, Defs: []ir.Reg{ir.GPR(3)}, Uses: []ir.Reg{ir.GPR(4)}, Imm: int64(i)},
			{Op: ir.ADDI, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(3)}, Imm: int64(i * 7)},
		}
	}
	// cost encodes (target, block) so a cross-target leak is detectable
	// in the entry itself, not just by key accounting.
	cost := func(tgtIdx, blockIdx int) int { return 1 + tgtIdx*blocks + blockIdx }

	const workersPerTarget = 4
	const ops = 1500
	var wg sync.WaitGroup
	errc := make(chan error, len(targets)*workersPerTarget)
	for ti, tgt := range targets {
		model := tgt.Model.Name
		c := caches[model]
		for w := 0; w < workersPerTarget; w++ {
			wg.Add(1)
			go func(ti, seed int) {
				defer wg.Done()
				rng := uint32(seed*2654435761 + 17)
				for i := 0; i < ops; i++ {
					rng = rng*1664525 + 1013904223
					bi := int(rng % blocks)
					k := BlockKey(model, instrs[bi])
					if e, ok := c.Lookup(k, 2); ok {
						if e.CostAfter != cost(ti, bi) {
							errc <- fmt.Errorf("target %s block %d: entry cost %d, want %d — cross-target leak",
								model, bi, e.CostAfter, cost(ti, bi))
							return
						}
					} else {
						c.Insert(k, Entry{
							NInstrs:    2,
							Order:      []int32{1, 0},
							CostBefore: 2 * cost(ti, bi),
							CostAfter:  cost(ti, bi),
							Changed:    true,
						})
					}
				}
			}(ti, ti*workersPerTarget+w)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for _, tgt := range targets {
		st := caches[tgt.Model.Name].Stats()
		if st.Hits+st.Misses != workersPerTarget*ops {
			t.Fatalf("%s: hits+misses = %d, want %d", tgt.Name, st.Hits+st.Misses, workersPerTarget*ops)
		}
		if st.Weight > bound {
			t.Fatalf("%s: weight %d exceeds bound %d", tgt.Name, st.Weight, bound)
		}
		if st.Evictions == 0 {
			t.Fatalf("%s: no evictions under pressure", tgt.Name)
		}
		if st.Entries != int(st.Inserts-st.Evictions) {
			t.Fatalf("%s: entries %d != inserts %d - evictions %d",
				tgt.Name, st.Entries, st.Inserts, st.Evictions)
		}
	}

	// Post-race cross-check: each target's own keys resolve in its own
	// cache, and the same content under any other target's key misses.
	for ti, tgt := range targets {
		c := caches[tgt.Model.Name]
		found := 0
		for bi := 0; bi < blocks; bi++ {
			if e, ok := c.Lookup(BlockKey(tgt.Model.Name, instrs[bi]), 2); ok {
				found++
				if e.CostAfter != cost(ti, bi) {
					t.Fatalf("%s block %d: cost %d, want %d", tgt.Name, bi, e.CostAfter, cost(ti, bi))
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s: no surviving entries after load", tgt.Name)
		}
		other := targets[(ti+1)%len(targets)]
		for bi := 0; bi < blocks; bi++ {
			if _, ok := c.Lookup(BlockKey(other.Model.Name, instrs[bi]), 2); ok {
				t.Fatalf("%s's cache answers %s's key for block %d", tgt.Name, other.Name, bi)
			}
		}
	}
}
