package core

import (
	"math/rand"
	"os"
	"testing"

	"schedfilter/internal/blockgen"
	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sched"
)

func genProgram(seed int64, nBlocks int) *ir.Program {
	r := rand.New(rand.NewSource(seed))
	fn := &ir.Fn{Name: "f"}
	for i := 0; i < nBlocks; i++ {
		fn.Blocks = append(fn.Blocks, blockgen.GenBlock(r, blockgen.DefaultConfig, i))
	}
	return &ir.Program{Fns: []*ir.Fn{fn}}
}

// TestApply is the oracle for the one scheduling pass: for every policy,
// with no cache or a warm one, timed or not, Apply must leave exactly the
// block orders the reference scheduler produces over the blocks the policy
// approves, report the reference's cost totals, and agree with every other
// configuration on its stats. The keyed rows check that the cache holds
// each approved block's reference result under the key
// codecache.BlockKey gives its unscheduled code, the key the server's
// online collector shares. LS and size>=5 approve every block, NS
// none (leaving the program as it was), and size>=25 and the factory
// filter split the population.
func TestApply(t *testing.T) {
	m := machine.Default().Model
	base := genProgram(21, 48)
	text, err := os.ReadFile("../../cmd/schedserved/factory_model.txt")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := policy.ParseInduced(string(text))
	if err != nil {
		t.Fatal(err)
	}
	const all, none, some = 1, 2, 3
	policies := []struct {
		name     string
		f        policy.Policy
		approves int
	}{
		{"always", policy.Always{}, all},
		{"never", policy.Never{}, none},
		{"size5", policy.SizeThreshold{MinLen: 5}, all},
		{"size25", policy.SizeThreshold{MinLen: 25}, some},
		{"factory", factory, some},
	}
	for _, pc := range policies {
		want := base.Clone()
		var wantSt Stats
		wantBlocks := map[codecache.Key]sched.Result{}
		for _, fn := range want.Fns {
			for _, b := range fn.Blocks {
				wantSt.Blocks++
				if !policy.Schedules(pc.f, features.ExtractBlock(b)) {
					wantSt.NotScheduled++
					continue
				}
				wantSt.Scheduled++
				res := sched.ScheduleInstrsReference(m, b.Instrs)
				wantBlocks[codecache.BlockKey(m.Name, b.Instrs)] = res
				b.Instrs = res.Apply(b.Instrs)
				wantSt.CostBefore += int64(res.CostBefore)
				wantSt.CostAfter += int64(res.CostAfter)
				if res.Changed {
					wantSt.Changed++
				}
			}
		}
		t.Logf("%s: %d of %d blocks approved", pc.name, wantSt.Scheduled, wantSt.Blocks)
		if wantSt.Blocks != 48 || wantSt.Scheduled+wantSt.NotScheduled != wantSt.Blocks ||
			pc.approves == all && wantSt.NotScheduled != 0 ||
			pc.approves == none && wantSt.Scheduled != 0 ||
			pc.approves == some && (wantSt.Scheduled == 0 || wantSt.NotScheduled == 0) {
			t.Fatalf("%s: approved %d of %d blocks", pc.name, wantSt.Scheduled, wantSt.Blocks)
		}
		if wantSt.CostAfter > wantSt.CostBefore {
			t.Fatalf("%s: scheduling raised total cost: %d -> %d", pc.name, wantSt.CostBefore, wantSt.CostAfter)
		}

		// The cold pass that warms the cache must already match the
		// reference; the warm rows below then replay every block.
		warm := codecache.New(1 << 16)
		cold := base.Clone()
		if st := Apply(m, cold, pc.f, Pass{Cache: warm}); cold.String() != want.String() ||
			st.CostAfter != wantSt.CostAfter || st.CacheHits+st.CacheMisses != wantSt.Scheduled {
			t.Fatalf("%s: cold cached pass diverged from the reference: %+v", pc.name, st)
		}
		for _, cache := range []*codecache.Cache{nil, warm} {
			for _, mode := range []string{"", "/timed", "/keyed"} {
				timed := mode == "/timed"
				name := pc.name + "/nocache" + mode
				if cache != nil {
					name = pc.name + "/warm" + mode
				}
				t.Run(name, func(t *testing.T) {
					var lookups int64
					if cache != nil {
						cs := cache.Stats()
						lookups = cs.Hits + cs.Misses
					}
					p := base.Clone()
					st := Apply(m, p, pc.f, Pass{Cache: cache, Timed: timed})

					if st.Blocks != wantSt.Blocks || st.Scheduled != wantSt.Scheduled ||
						st.NotScheduled != wantSt.NotScheduled || st.Changed != wantSt.Changed ||
						st.CostBefore != wantSt.CostBefore || st.CostAfter != wantSt.CostAfter {
						t.Fatalf("stats %+v, reference %+v", st, wantSt)
					}
					if p.String() != want.String() {
						t.Fatal("block orders differ from the reference scheduler's")
					}
					if cache == nil {
						if st.CacheHits != 0 || st.CacheMisses != 0 {
							t.Errorf("uncached pass reported cache traffic: %+v", st)
						}
					} else {
						if st.CacheMisses != 0 || st.CacheHits != st.Scheduled {
							t.Errorf("warm pass: %d hits, %d misses for %d scheduled blocks",
								st.CacheHits, st.CacheMisses, st.Scheduled)
						}
						cs := cache.Stats()
						if got := cs.Hits + cs.Misses - lookups; got != int64(st.Scheduled) {
							t.Errorf("pass made %d cache lookups for %d scheduled blocks", got, st.Scheduled)
						}
					}
					if !timed && st.Phases != (sched.PhaseTimes{}) {
						t.Errorf("untimed pass reported phases: %+v", st.Phases)
					}
					if timed && st.Scheduled > 0 && st.Phases.Total() <= 0 {
						t.Errorf("timed pass recorded no phase time: %+v", st.Phases)
					}
					if st.SchedTime <= 0 {
						t.Error("pass reported zero wall time")
					}
					if mode != "/keyed" {
						return
					}
					before := warm.Stats()
					for key, res := range wantBlocks {
						e, ok := warm.Lookup(key, len(res.Order))
						if !ok || e.CostBefore != res.CostBefore || e.CostAfter != res.CostAfter || e.Changed != res.Changed {
							t.Fatalf("cache under the block key holds %+v (found %v), reference %+v", e, ok, res)
						}
					}
					if got := warm.Stats().Hits - before.Hits; got != int64(len(wantBlocks)) {
						t.Errorf("%d hits for %d distinct approved blocks", got, len(wantBlocks))
					}
				})
			}
		}
	}
}

func TestDecideMatchesApply(t *testing.T) {
	m := machine.Default().Model
	p := genProgram(5, 16)
	f := policy.SizeThreshold{MinLen: 20}
	dec := Decide(p, f)
	st := Apply(m, p.Clone(), f, Pass{})
	yes := 0
	for _, d := range dec {
		if d {
			yes++
		}
	}
	if yes != st.Scheduled {
		t.Errorf("Decide says %d blocks, Apply scheduled %d", yes, st.Scheduled)
	}
}
