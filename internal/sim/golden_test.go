package sim_test

// Golden pins for the simulator: every registered target × every bundled
// program × {unscheduled, list-scheduled}, the timed run's cycle count,
// dynamic instruction count, return value and a digest of the block and
// taken-branch profiles; and the untimed profiling run of every bundled
// program at the training pipeline's options. The values were recorded
// from simulators that counted every instruction as it ran; any change to
// the decoded pipeline, the dispatch loop or run-memory reuse must
// reproduce them exactly.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

type goldenRun struct {
	cycles, dyn, ret int64
	profile          uint64
}

// profileDigest is FNV-64a over both profiles, row by row.
func profileDigest(res *sim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, counts := range [][][]int64{res.ExecCounts, res.TakenCounts} {
		put(int64(len(counts)))
		for _, row := range counts {
			put(int64(len(row)))
			for _, c := range row {
				put(c)
			}
		}
	}
	return h.Sum64()
}

// compileDefault compiles a bundled program the way the compile service
// does: default front end, default JIT options.
func compileDefault(t testing.TB, w *workloads.Workload) *ir.Program {
	t.Helper()
	mod, err := w.Compile()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	prog, err := jit.Compile(mod, jit.Options{})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}

// listSchedule list-schedules every block of prog in place for m.
func listSchedule(m *machine.Model, prog *ir.Program) {
	scratch := sched.NewScratch()
	for _, f := range prog.Fns {
		for _, b := range f.Blocks {
			sched.ScheduleBlock(m, b, nil, scratch)
		}
	}
}

func TestGoldenRuns(t *testing.T) {
	targets := machine.All()
	if testing.Short() || raceEnabled {
		targets = []*machine.Target{machine.Default()}
	}
	for _, w := range workloads.All() {
		ns := compileDefault(t, &w)
		for _, tg := range targets {
			for _, variant := range []string{"ns", "ls"} {
				key := fmt.Sprintf("%s/%s/%s", tg.Name, w.Name, variant)
				want, ok := goldenRuns[key]
				if !ok {
					t.Errorf("%s: no golden entry", key)
					continue
				}
				prog := ns
				if variant == "ls" {
					prog = ns.Clone()
					listSchedule(tg.Model, prog)
				}
				res, err := sim.Run(prog, sim.Config{Timed: true, Model: tg.Model})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := goldenRun{res.Cycles, res.DynInstrs, res.Ret, profileDigest(res)}
				if got != want {
					t.Errorf("%s: got %+v, want %+v", key, got, want)
				}
				if tg.Name != machine.DefaultTargetName {
					continue
				}
				// The untimed run shares the dispatch loop: same answer,
				// same profile, no cycles.
				un, err := sim.Run(prog, sim.Config{})
				if err != nil {
					t.Fatalf("%s untimed: %v", key, err)
				}
				if got := (goldenRun{un.Cycles, un.DynInstrs, un.Ret, profileDigest(un)}); got != (goldenRun{0, want.dyn, want.ret, want.profile}) {
					t.Errorf("%s untimed: got %+v, want %+v with no cycles", key, got, want)
				}
			}
		}
	}
}

// outputDigest is FNV-64a over the run's printed lines, each prefixed
// with its length.
func outputDigest(res *sim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, line := range res.Output {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(line)))
		h.Write(buf[:])
		h.Write([]byte(line))
	}
	return h.Sum64()
}

type goldenTrainRun struct {
	dyn, ret        int64
	output, profile uint64
}

// TestGoldenTrainRuns pins the profiling run a training round makes: the
// untimed run of every bundled program compiled at
// training.DefaultOptions (inlining plus 4-way unrolling, which leaves
// calls in the middle of blocks).
func TestGoldenTrainRuns(t *testing.T) {
	for _, w := range workloads.All() {
		want, ok := goldenTrainRuns[w.Name]
		if !ok {
			t.Errorf("%s: no golden entry", w.Name)
			continue
		}
		res, err := sim.Run(compileWorkload(t, w.Name), sim.Config{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got := goldenTrainRun{res.DynInstrs, res.Ret, outputDigest(res), profileDigest(res)}
		if got != want || res.Cycles != 0 {
			t.Errorf("%s: got %+v (cycles %d), want %+v", w.Name, got, res.Cycles, want)
		}
	}
}

// TestStepLimitOnPrograms sets the step limit to each training-options
// program's exact instruction count, which must change nothing, and to
// one short of it, which must fail on main's return. Then it sets limits
// throughout two programs at default options, whose calls stay out of
// line, and pins the function each run stops in: the limit falls at
// block entries, mid-segment and right after returns.
func TestStepLimitOnPrograms(t *testing.T) {
	for _, w := range workloads.All() {
		p := compileWorkload(t, w.Name)
		full, err := sim.Run(p, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := sim.Run(p, sim.Config{StepLimit: full.DynInstrs})
		if err != nil || !reflect.DeepEqual(exact, full) {
			t.Errorf("%s: limit at the exact count: %v, or the result changed", w.Name, err)
		}
		_, err = sim.Run(p, sim.Config{StepLimit: full.DynInstrs - 1})
		if want := fmt.Sprintf("sim: step limit (%d) exceeded in main", full.DynInstrs-1); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", w.Name, err, want)
		}
	}
	stops := map[string][]string{
		"javac": {"genExpr", "genExpr", "genExpr", "genExpr", "genExpr", "parseExpr", "genExpr", "genExpr",
			"genExpr", "parseExpr", "parseExpr", "genExpr", "genExpr", "genExpr", "genExpr"},
		"raytrace": {"trace", "trace", "wlSqrt", "wlSqrt", "trace", "trace", "main", "trace",
			"trace", "trace", "trace", "trace", "trace", "trace", "wlSqrt"},
	}
	for name, fns := range stops {
		p := compileDefault(t, workloads.ByName(name))
		full, err := sim.Run(p, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for k, fn := range fns {
			limit := full.DynInstrs*int64(k+1)/16 + int64(k+1)
			_, err := sim.Run(p, sim.Config{StepLimit: limit})
			if want := fmt.Sprintf("sim: step limit (%d) exceeded in %s", limit, fn); err == nil || err.Error() != want {
				t.Errorf("%s: err %v, want %q", name, err, want)
			}
		}
	}
}

// goldenTrainRuns is keyed by program; no bundled program prints, so every
// output digest is that of no lines.
var goldenTrainRuns = map[string]goldenTrainRun{
	"compress":  {591004, 1574873061, 0xcbf29ce484222325, 0x2c8e3dc5ae1ff37e},
	"jess":      {831182, 700579, 0xcbf29ce484222325, 0x8fa26c496404bb06},
	"db":        {6561328, 82483207, 0xcbf29ce484222325, 0x3b82939f118bf5bb},
	"javac":     {294169, 10557343, 0xcbf29ce484222325, 0x606ea47002b6d417},
	"mpegaudio": {4453648, 54882582, 0xcbf29ce484222325, 0x7e63136413e77b8a},
	"raytrace":  {3291636, 30478, 0xcbf29ce484222325, 0xadb8ac5860bfcac2},
	"jack":      {3373575, 7669732, 0xcbf29ce484222325, 0x43c407dd2dff38ce},
	"linpack":   {1659065, 163198443, 0xcbf29ce484222325, 0x4312e5da4fa558ce},
	"power":     {3162793, 40079856, 0xcbf29ce484222325, 0x7ee3612aac600e60},
	"bh":        {6745369, 105112071, 0xcbf29ce484222325, 0xac9583a17c91ea91},
	"voronoi":   {9390902, 253879986, 0xcbf29ce484222325, 0xcc61631c2b0cc73c},
	"aes":       {8618247, 8387403, 0xcbf29ce484222325, 0xce91a8592eacf419},
	"scimark":   {3612806, 145498464, 0xcbf29ce484222325, 0x89b96109ed13e6cd},
}

// goldenRuns is keyed target/program/variant.
var goldenRuns = map[string]goldenRun{
	"mpc7410/compress/ns":      {651045, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"mpc7410/compress/ls":      {625008, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"scalar603/compress/ns":    {922341, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"scalar603/compress/ls":    {881055, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"scalar1/compress/ns":      {817546, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"scalar1/compress/ls":      {788107, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"wide4/compress/ns":        {643906, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"wide4/compress/ls":        {625007, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"test-narrow/compress/ns":  {627444, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"test-narrow/compress/ls":  {598005, 548668, 1574873061, 0x4b98cdaa7a3b2c04},
	"mpc7410/jess/ns":          {1106588, 715121, 700579, 0x32e42f928b7c995c},
	"mpc7410/jess/ls":          {1039253, 715121, 700579, 0x32e42f928b7c995c},
	"scalar603/jess/ns":        {1509265, 715121, 700579, 0x32e42f928b7c995c},
	"scalar603/jess/ls":        {1372254, 715121, 700579, 0x32e42f928b7c995c},
	"scalar1/jess/ns":          {1308503, 715121, 700579, 0x32e42f928b7c995c},
	"scalar1/jess/ls":          {1202352, 715121, 700579, 0x32e42f928b7c995c},
	"wide4/jess/ns":            {1082130, 715121, 700579, 0x32e42f928b7c995c},
	"wide4/jess/ls":            {1039252, 715121, 700579, 0x32e42f928b7c995c},
	"test-narrow/jess/ns":      {904518, 715121, 700579, 0x32e42f928b7c995c},
	"test-narrow/jess/ls":      {798367, 715121, 700579, 0x32e42f928b7c995c},
	"mpc7410/db/ns":            {6096854, 5585192, 82483207, 0x6f828f026b82a697},
	"mpc7410/db/ls":            {6015768, 5585192, 82483207, 0x6f828f026b82a697},
	"scalar603/db/ns":          {9221630, 5585192, 82483207, 0x6f828f026b82a697},
	"scalar603/db/ls":          {9132942, 5585192, 82483207, 0x6f828f026b82a697},
	"scalar1/db/ns":            {7804051, 5585192, 82483207, 0x6f828f026b82a697},
	"scalar1/db/ls":            {7719063, 5585192, 82483207, 0x6f828f026b82a697},
	"wide4/db/ns":              {6093001, 5585192, 82483207, 0x6f828f026b82a697},
	"wide4/db/ls":              {6015767, 5585192, 82483207, 0x6f828f026b82a697},
	"test-narrow/db/ns":        {6685066, 5585192, 82483207, 0x6f828f026b82a697},
	"test-narrow/db/ls":        {6602229, 5585192, 82483207, 0x6f828f026b82a697},
	"mpc7410/javac/ns":         {370904, 295212, 10557343, 0x10685d4903493b55},
	"mpc7410/javac/ls":         {366257, 295212, 10557343, 0x10685d4903493b55},
	"scalar603/javac/ns":       {501379, 295212, 10557343, 0x10685d4903493b55},
	"scalar603/javac/ls":       {499356, 295212, 10557343, 0x10685d4903493b55},
	"scalar1/javac/ns":         {450994, 295212, 10557343, 0x10685d4903493b55},
	"scalar1/javac/ls":         {448971, 295212, 10557343, 0x10685d4903493b55},
	"wide4/javac/ns":           {368135, 295212, 10557343, 0x10685d4903493b55},
	"wide4/javac/ls":           {366256, 295212, 10557343, 0x10685d4903493b55},
	"test-narrow/javac/ns":     {316622, 295212, 10557343, 0x10685d4903493b55},
	"test-narrow/javac/ls":     {314599, 295212, 10557343, 0x10685d4903493b55},
	"mpc7410/mpegaudio/ns":     {6010188, 3517023, 54882582, 0x5311090760852906},
	"mpc7410/mpegaudio/ls":     {5876012, 3517023, 54882582, 0x5311090760852906},
	"scalar603/mpegaudio/ns":   {7941031, 3517023, 54882582, 0x5311090760852906},
	"scalar603/mpegaudio/ls":   {7680935, 3517023, 54882582, 0x5311090760852906},
	"scalar1/mpegaudio/ns":     {7274279, 3517023, 54882582, 0x5311090760852906},
	"scalar1/mpegaudio/ls":     {7014151, 3517023, 54882582, 0x5311090760852906},
	"wide4/mpegaudio/ns":       {6010188, 3517023, 54882582, 0x5311090760852906},
	"wide4/mpegaudio/ls":       {5876012, 3517023, 54882582, 0x5311090760852906},
	"test-narrow/mpegaudio/ns": {4559147, 3517023, 54882582, 0x5311090760852906},
	"test-narrow/mpegaudio/ls": {4299019, 3517023, 54882582, 0x5311090760852906},
	"mpc7410/raytrace/ns":      {6996882, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"mpc7410/raytrace/ls":      {6297489, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"scalar603/raytrace/ns":    {10560108, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"scalar603/raytrace/ls":    {9453625, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"scalar1/raytrace/ns":      {7731369, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"scalar1/raytrace/ls":      {6862323, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"wide4/raytrace/ns":        {6996881, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"wide4/raytrace/ls":        {6297488, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"test-narrow/raytrace/ns":  {5328017, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"test-narrow/raytrace/ls":  {4465074, 3379093, 30478, 0xa5a9b8d8b6915ee7},
	"mpc7410/jack/ns":          {3337410, 2783392, 7669732, 0x1d376205af73cc1b},
	"mpc7410/jack/ls":          {3265382, 2783392, 7669732, 0x1d376205af73cc1b},
	"scalar603/jack/ns":        {4610856, 2783392, 7669732, 0x1d376205af73cc1b},
	"scalar603/jack/ls":        {4505404, 2783392, 7669732, 0x1d376205af73cc1b},
	"scalar1/jack/ns":          {4248657, 2783392, 7669732, 0x1d376205af73cc1b},
	"scalar1/jack/ls":          {4167205, 2783392, 7669732, 0x1d376205af73cc1b},
	"wide4/jack/ns":            {3337410, 2783392, 7669732, 0x1d376205af73cc1b},
	"wide4/jack/ls":            {3265382, 2783392, 7669732, 0x1d376205af73cc1b},
	"test-narrow/jack/ns":      {3072253, 2783392, 7669732, 0x1d376205af73cc1b},
	"test-narrow/jack/ls":      {3031515, 2783392, 7669732, 0x1d376205af73cc1b},
	"mpc7410/linpack/ns":       {1539317, 1275473, 163198443, 0xc2d6f923389bcd57},
	"mpc7410/linpack/ls":       {1202056, 1275473, 163198443, 0xc2d6f923389bcd57},
	"scalar603/linpack/ns":     {2342998, 1275473, 163198443, 0xc2d6f923389bcd57},
	"scalar603/linpack/ls":     {1831237, 1275473, 163198443, 0xc2d6f923389bcd57},
	"scalar1/linpack/ns":       {1927159, 1275473, 163198443, 0xc2d6f923389bcd57},
	"scalar1/linpack/ls":       {1515238, 1275473, 163198443, 0xc2d6f923389bcd57},
	"wide4/linpack/ns":         {1472816, 1275473, 163198443, 0xc2d6f923389bcd57},
	"wide4/linpack/ls":         {1181475, 1275473, 163198443, 0xc2d6f923389bcd57},
	"test-narrow/linpack/ns":   {1658750, 1275473, 163198443, 0xc2d6f923389bcd57},
	"test-narrow/linpack/ls":   {1321949, 1275473, 163198443, 0xc2d6f923389bcd57},
	"mpc7410/power/ns":         {3887491, 2140768, 40079856, 0x3fb7d21d8e548147},
	"mpc7410/power/ls":         {3609946, 2140768, 40079856, 0x3fb7d21d8e548147},
	"scalar603/power/ns":       {5715762, 2140768, 40079856, 0x3fb7d21d8e548147},
	"scalar603/power/ls":       {5460824, 2140768, 40079856, 0x3fb7d21d8e548147},
	"scalar1/power/ns":         {4494718, 2140768, 40079856, 0x3fb7d21d8e548147},
	"scalar1/power/ls":         {4170852, 2140768, 40079856, 0x3fb7d21d8e548147},
	"wide4/power/ns":           {3849091, 2140768, 40079856, 0x3fb7d21d8e548147},
	"wide4/power/ls":           {3609946, 2140768, 40079856, 0x3fb7d21d8e548147},
	"test-narrow/power/ns":     {3180935, 2140768, 40079856, 0x3fb7d21d8e548147},
	"test-narrow/power/ls":     {2857069, 2140768, 40079856, 0x3fb7d21d8e548147},
	"mpc7410/bh/ns":            {22491907, 7643396, 105112071, 0x27b1b90898db47b9},
	"mpc7410/bh/ls":            {21289881, 7643396, 105112071, 0x27b1b90898db47b9},
	"scalar603/bh/ns":          {30405404, 7643396, 105112071, 0x27b1b90898db47b9},
	"scalar603/bh/ls":          {28579278, 7643396, 105112071, 0x27b1b90898db47b9},
	"scalar1/bh/ns":            {24769262, 7643396, 105112071, 0x27b1b90898db47b9},
	"scalar1/bh/ls":            {23111908, 7643396, 105112071, 0x27b1b90898db47b9},
	"wide4/bh/ns":              {22435699, 7643396, 105112071, 0x27b1b90898db47b9},
	"wide4/bh/ls":              {21289881, 7643396, 105112071, 0x27b1b90898db47b9},
	"test-narrow/bh/ns":        {11058322, 7643396, 105112071, 0x27b1b90898db47b9},
	"test-narrow/bh/ls":        {9418680, 7643396, 105112071, 0x27b1b90898db47b9},
	"mpc7410/voronoi/ns":       {15803791, 7553030, 253879986, 0xe706d3b158ddea8c},
	"mpc7410/voronoi/ls":       {14792041, 7553030, 253879986, 0xe706d3b158ddea8c},
	"scalar603/voronoi/ns":     {22520724, 7553030, 253879986, 0xe706d3b158ddea8c},
	"scalar603/voronoi/ls":     {20980974, 7553030, 253879986, 0xe706d3b158ddea8c},
	"scalar1/voronoi/ns":       {17916669, 7553030, 253879986, 0xe706d3b158ddea8c},
	"scalar1/voronoi/ls":       {16839381, 7553030, 253879986, 0xe706d3b158ddea8c},
	"wide4/voronoi/ns":         {15803791, 7553030, 253879986, 0xe706d3b158ddea8c},
	"wide4/voronoi/ls":         {14792041, 7553030, 253879986, 0xe706d3b158ddea8c},
	"test-narrow/voronoi/ns":   {11336312, 7553030, 253879986, 0xe706d3b158ddea8c},
	"test-narrow/voronoi/ls":   {10267000, 7553030, 253879986, 0xe706d3b158ddea8c},
	"mpc7410/aes/ns":           {6461509, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"mpc7410/aes/ls":           {6068199, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"scalar603/aes/ns":         {9803902, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"scalar603/aes/ls":         {9352482, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"scalar1/aes/ns":           {8762874, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"scalar1/aes/ls":           {8455709, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"wide4/aes/ns":             {6441509, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"wide4/aes/ls":             {5979799, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"test-narrow/aes/ns":       {7263324, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"test-narrow/aes/ls":       {6956159, 6250072, 8387403, 0x6e01f9bb9a6289f4},
	"mpc7410/scimark/ns":       {3965090, 2702291, 145498464, 0xfc0705e3f43c012f},
	"mpc7410/scimark/ls":       {3456766, 2702291, 145498464, 0xfc0705e3f43c012f},
	"scalar603/scimark/ns":     {5730132, 2702291, 145498464, 0xfc0705e3f43c012f},
	"scalar603/scimark/ls":     {4976442, 2702291, 145498464, 0xfc0705e3f43c012f},
	"scalar1/scimark/ns":       {4809312, 2702291, 145498464, 0xfc0705e3f43c012f},
	"scalar1/scimark/ls":       {4223545, 2702291, 145498464, 0xfc0705e3f43c012f},
	"wide4/scimark/ns":         {3895521, 2702291, 145498464, 0xfc0705e3f43c012f},
	"wide4/scimark/ls":         {3433661, 2702291, 145498464, 0xfc0705e3f43c012f},
	"test-narrow/scimark/ns":   {3628215, 2702291, 145498464, 0xfc0705e3f43c012f},
	"test-narrow/scimark/ls":   {3110391, 2702291, 145498464, 0xfc0705e3f43c012f},
}
