package training

import (
	"fmt"
	"hash/fnv"
	"testing"

	"schedfilter/internal/ripper"
)

// goldenRules pins the rule sets Ripper induces from the 13 programs at
// DefaultOptions, as an FNV-64a digest of RuleSet.Format(): TrainFilter
// over all programs at each threshold and seed, and the paper's
// leave-one-out protocol for every program at t=20. Format renders
// condition values at full precision and includes every rule's training
// counts, so any change to a chosen condition, to rule order or to the
// MDL accounting shows up here.
var goldenRules = map[string]uint64{
	"train t=0 seed=1":   0x727584c4a607ebde,
	"train t=0 seed=2":   0x2ff009e7dd6907dc,
	"train t=0 seed=3":   0xb988c7f6865e4cff,
	"train t=5 seed=1":   0x9d1cf442d8f03010,
	"train t=5 seed=2":   0x81b532d7ecfda085,
	"train t=5 seed=3":   0xf9570e69f2f0dbf4,
	"train t=10 seed=1":  0x2cb80ece9e7791c1,
	"train t=10 seed=2":  0x3f4a51c9198101bd,
	"train t=10 seed=3":  0x9f46ef6acf6aa959,
	"train t=20 seed=1":  0x799c2806fccd9f12,
	"train t=20 seed=2":  0xe2609d65fe19bd51,
	"train t=20 seed=3":  0xb5d42ac57b201800,
	"train t=30 seed=1":  0x6d7e9b70968edc42,
	"train t=30 seed=2":  0xb7c57b0247b5861e,
	"train t=30 seed=3":  0xa37277db65af94be,
	"train t=50 seed=1":  0x7ce1fc7d8e88348b,
	"train t=50 seed=2":  0x7ce1fc7d8e88348b,
	"train t=50 seed=3":  0x7ce1fc7d8e88348b,
	"loo t=20 aes":       0x70f120a17b8259b9,
	"loo t=20 bh":        0x4689a7039b4be644,
	"loo t=20 compress":  0x3c23cd325380b79d,
	"loo t=20 db":        0x15aa4a268db98a7d,
	"loo t=20 jack":      0xc79377e615445223,
	"loo t=20 javac":     0x7a05be456ca2f40c,
	"loo t=20 jess":      0x4a242e256a6c9a8d,
	"loo t=20 linpack":   0x5438bbfe3a187b6e,
	"loo t=20 mpegaudio": 0x2bd6a40d22822708,
	"loo t=20 power":     0xd6b32f2a146476a8,
	"loo t=20 raytrace":  0xb55b3d8eb60892f2,
	"loo t=20 scimark":   0x23284171628bd100,
	"loo t=20 voronoi":   0xcd0545274c8b02ef,
}

func rulesDigest(rs *ripper.RuleSet) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rs.Format()))
	return h.Sum64()
}

func TestGoldenRuleSets(t *testing.T) {
	data := collectAllPrograms(t)
	var c LabelCache
	got := map[string]uint64{}
	for _, th := range []int{0, 5, 10, 20, 30, 50} {
		for _, seed := range []int64{1, 2, 3} {
			opt := ripper.DefaultOptions()
			opt.Seed = seed
			f := TrainFilter(data, th, opt, &c)
			got[fmt.Sprintf("train t=%d seed=%d", th, seed)] = rulesDigest(f.Rules)
		}
	}
	for _, bd := range data {
		f := LeaveOneOut(data, bd.Name, 20, ripper.DefaultOptions(), &c)
		got["loo t=20 "+bd.Name] = rulesDigest(f.Rules)
	}
	if len(got) != len(goldenRules) {
		t.Errorf("computed %d digests, golden table has %d", len(got), len(goldenRules))
	}
	for k, v := range got {
		if want, ok := goldenRules[k]; !ok || v != want {
			t.Errorf("%q: rule-set digest %#x, want %#x", k, v, want)
		}
	}
}
