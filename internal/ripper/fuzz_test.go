package ripper

import (
	"math/rand"
	"testing"
)

// fuzzGrid is the finite value grid fuzzed datasets draw from: few values,
// so ties are heavy, with negatives, fractions and a large magnitude. It
// leaves out −0, whose printed form the row-wise reference takes from
// whichever of ±0 its sort puts first.
var fuzzGrid = []float64{0, 1, -1, 0.5, 2, -3.25, 7, 1e6, 0.125, -1e-3}

// fuzzDataset builds a dataset of up to 300 instances over 1–5 attributes.
// Values and labels come from data, then from a generator seeded by seed
// once data runs out.
func fuzzDataset(seed int64, shape uint16, data []byte) *Dataset {
	n := int(shape) % 301
	numAttrs := 1 + int(shape>>9)%5
	grid := fuzzGrid[:2+int(shape>>12)%(len(fuzzGrid)-1)]
	r := rand.New(rand.NewSource(seed))
	next := func() byte {
		if len(data) > 0 {
			b := data[0]
			data = data[1:]
			return b
		}
		return byte(r.Intn(256))
	}
	ds := &Dataset{Names: names(numAttrs)}
	for i := 0; i < n; i++ {
		x := make([]float64, numAttrs)
		for a := range x {
			x[a] = grid[int(next())%len(grid)]
		}
		ds.Add(x, next()&1 == 1)
	}
	return ds
}

func checkMatchesReference(t *testing.T, ds *Dataset, opt Options) {
	t.Helper()
	got := Induce(ds, opt).Format()
	want := refInduce(ds, opt).Format()
	if got != want {
		t.Fatalf("%d instances, seed %d, %d rounds: Induce diverged from the row-wise reference\ngot:\n%s\nwant:\n%s",
			ds.Len(), opt.Seed, opt.OptimizeRounds, got, want)
	}
}

// FuzzInduce checks that induction on presorted attribute lists and
// coverage bitsets yields the row-wise reference's rule set, byte for byte.
func FuzzInduce(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(2), []byte{})
	f.Add(int64(2), uint16(300|2<<9|3<<12), uint8(1), []byte{7, 3, 9})
	f.Add(int64(3), uint16(200|4<<9|9<<12), uint8(3), []byte{})
	f.Add(int64(-5), uint16(1), uint8(0), []byte{1, 1})
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, rounds uint8, data []byte) {
		ds := fuzzDataset(seed, shape, data)
		opt := DefaultOptions()
		opt.Seed = seed ^ int64(rounds)<<32
		opt.OptimizeRounds = 1 + int(rounds)%3
		checkMatchesReference(t, ds, opt)
	})
}

// TestInduceMatchesReference runs the differential check over the
// synthetic concepts of the other tests and a sweep of fuzz-shaped
// datasets, so plain go test covers it without the fuzzer.
func TestInduceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	concepts := []func(x []float64) bool{
		func(x []float64) bool { return x[0] >= 0.6 },
		func(x []float64) bool { return x[0] >= 0.5 && x[1] <= 0.4 },
		func(x []float64) bool { return x[0] >= 0.8 || x[1] >= 0.85 },
		func(x []float64) bool { return x[0]+x[1] >= 1.2 },
	}
	for _, c := range concepts {
		ds := synth(r, 800, c, 0.05)
		for seed := int64(1); seed <= 3; seed++ {
			opt := DefaultOptions()
			opt.Seed = seed
			checkMatchesReference(t, ds, opt)
		}
	}
	for i := 0; i < 200; i++ {
		ds := fuzzDataset(int64(i), uint16(r.Intn(1<<16)), nil)
		opt := DefaultOptions()
		opt.Seed = int64(i)
		opt.OptimizeRounds = 1 + i%3
		checkMatchesReference(t, ds, opt)
	}
}
