package training

import (
	"bytes"
	"strings"
	"testing"

	"schedfilter/internal/features"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/workloads"
)

func collectSuite1(t *testing.T) []*BenchData {
	t.Helper()
	m := machine.Default().Model
	data, err := CollectAllJobs(workloads.Suite1(), m, DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// collectAllPrograms collects the 13 programs (both suites) at
// DefaultOptions, as the paper's train step does.
func collectAllPrograms(tb testing.TB) []*BenchData {
	tb.Helper()
	data, err := CollectAllJobs(workloads.All(), machine.Default().Model, DefaultOptions(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func TestLabelOfThresholds(t *testing.T) {
	r := BlockRecord{CostNS: 100, CostLS: 80} // 20% improvement
	cases := []struct {
		t    int
		want int
	}{
		{0, +1}, {10, +1}, {19, +1}, {20, 0}, {25, 0}, {50, 0},
	}
	for _, c := range cases {
		if got := LabelOf(&r, c.t); got != c.want {
			t.Errorf("LabelOf(20%% improvement, t=%d) = %d, want %d", c.t, got, c.want)
		}
	}
	same := BlockRecord{CostNS: 100, CostLS: 100}
	if LabelOf(&same, 0) != -1 {
		t.Error("no improvement must label NS")
	}
	worse := BlockRecord{CostNS: 100, CostLS: 120}
	if LabelOf(&worse, 0) != -1 {
		t.Error("degradation must label NS")
	}
}

func TestLabelCountsMonotone(t *testing.T) {
	data := collectSuite1(t)
	var all []BlockRecord
	for _, bd := range data {
		all = append(all, bd.Records...)
	}
	prevLS := 1 << 30
	for _, th := range []int{0, 10, 20, 30, 40, 50} {
		ls, ns := LabelCounts(all, th)
		if ls > prevLS {
			t.Errorf("LS count rose from %d to %d at t=%d", prevLS, ls, th)
		}
		prevLS = ls
		// NS is constant across thresholds (the paper's Table 5 note).
		ls0, ns0 := LabelCounts(all, 0)
		if ns != ns0 {
			t.Errorf("NS count %d at t=%d differs from %d at t=0", ns, th, ns0)
		}
		_ = ls0
	}
}

func TestCollectProducesPlausibleInstances(t *testing.T) {
	data := collectSuite1(t)
	totalBlocks := 0
	improved := 0
	for _, bd := range data {
		if len(bd.Records) < 30 {
			t.Errorf("%s: only %d blocks", bd.Name, len(bd.Records))
		}
		totalBlocks += len(bd.Records)
		for i := range bd.Records {
			r := &bd.Records[i]
			if r.CostNS <= 0 && r.Feat.BBLen() > 0 {
				t.Errorf("%s %s b%d: nonpositive cost %d", bd.Name, r.Fn, r.Block, r.CostNS)
			}
			if r.CostLS < r.CostNS {
				improved++
			}
		}
	}
	t.Logf("suite1: %d blocks, %d improved by scheduling (%.1f%%)",
		totalBlocks, improved, 100*float64(improved)/float64(totalBlocks))
	if improved == 0 {
		t.Error("scheduling improved nothing; training is impossible")
	}
	if improved > totalBlocks/2 {
		t.Error("scheduling improved most blocks; filtering would be pointless")
	}
}

func TestLeaveOneOutAccuracy(t *testing.T) {
	data := collectSuite1(t)
	opt := ripper.DefaultOptions()
	for _, bd := range data {
		f := LeaveOneOut(data, bd.Name, 0, opt, nil)
		e := ErrorRate(f, bd, 0)
		t.Logf("%s: t=0 error %.2f%%, rules=%d", bd.Name, e*100, len(f.Rules.Rules))
		if e > 0.45 {
			t.Errorf("%s: error rate %.1f%% is no better than chance-ish", bd.Name, e*100)
		}
	}
}

func TestPredictedTimeOrdering(t *testing.T) {
	data := collectSuite1(t)
	for _, bd := range data {
		ls := PredictedTime(bd, policy.Always{})
		ns := PredictedTime(bd, policy.Never{})
		if ls > ns {
			t.Errorf("%s: predicted LS time %d exceeds NS time %d", bd.Name, ls, ns)
		}
		f := LeaveOneOut(data, bd.Name, 0, ripper.DefaultOptions(), nil)
		fl := PredictedTime(bd, f)
		if fl > ns {
			t.Errorf("%s: filtered predicted time %d exceeds NS %d", bd.Name, fl, ns)
		}
		if fl < ls {
			t.Errorf("%s: filtered predicted time %d beats always-scheduling %d (impossible under the estimator)", bd.Name, fl, ls)
		}
	}
}

func TestDecisionsPartition(t *testing.T) {
	data := collectSuite1(t)
	bd := data[0]
	f := LeaveOneOut(data, bd.Name, 20, ripper.DefaultOptions(), nil)
	ls, ns := Decisions(bd, f)
	if ls+ns != len(bd.Records) {
		t.Errorf("decisions %d+%d != %d blocks", ls, ns, len(bd.Records))
	}
}

// SchedCost charges NS nothing, LS the scheduler's work on every block,
// and a filter its decision on every block plus the work on the blocks
// it approves.
func TestSchedCost(t *testing.T) {
	data := collectSuite1(t)
	for _, bd := range data {
		var work, insns int64
		for i := range bd.Records {
			r := &bd.Records[i]
			if r.Feat.BBLen() > 0 && r.SchedWork <= 0 {
				t.Fatalf("%s %s block %d: %d-instruction block has work %d", bd.Name, r.Fn, r.Block, r.Feat.BBLen(), r.SchedWork)
			}
			work += r.SchedWork
			insns += int64(r.Feat.BBLen())
		}
		if got := SchedCost(bd, policy.Never{}); got != 0 {
			t.Errorf("%s: NS costs %d, want 0", bd.Name, got)
		}
		if got := SchedCost(bd, policy.Always{}); got != work {
			t.Errorf("%s: LS costs %d, want Σ SchedWork %d", bd.Name, got, work)
		}
		if got := SchedCost(bd, policy.SizeThreshold{MinLen: 0}); got != work+insns {
			t.Errorf("%s: approving every block costs %d, want Σ SchedWork + Σ bbLen = %d", bd.Name, got, work+insns)
		}
		if got := SchedCost(bd, policy.SizeThreshold{MinLen: 1 << 30}); got != insns {
			t.Errorf("%s: approving no block costs %d, want Σ bbLen = %d", bd.Name, got, insns)
		}
	}
}

func TestCollectAllJobsMatchesSerial(t *testing.T) {
	m := machine.Default().Model
	ws := workloads.Suite1()
	serial, err := CollectAllJobs(ws, m, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CollectAllJobs(ws, m, DefaultOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("parallel collected %d benchmarks, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Name != b.Name || len(a.Records) != len(b.Records) {
			t.Fatalf("benchmark %d: %s/%d records vs %s/%d", i,
				a.Name, len(a.Records), b.Name, len(b.Records))
		}
		for j := range a.Records {
			if a.Records[j] != b.Records[j] {
				t.Fatalf("%s record %d differs between serial and parallel collection:\n%+v\n%+v",
					a.Name, j, a.Records[j], b.Records[j])
			}
		}
	}
}

func TestLabelCacheAndCachedTraining(t *testing.T) {
	data := collectSuite1(t)
	var c LabelCache

	// Cached datasets are memoized and identical to fresh labelling.
	for _, bd := range data {
		for _, th := range []int{0, 25} {
			ds := c.Labelled(bd, th)
			if ds != c.Labelled(bd, th) {
				t.Fatalf("%s t=%d: cache returned a different dataset on the second lookup", bd.Name, th)
			}
			fresh := Label(bd.Records, th)
			if ds.Len() != fresh.Len() {
				t.Fatalf("%s t=%d: cached %d instances, fresh %d", bd.Name, th, ds.Len(), fresh.Len())
			}
		}
	}

	// Training through the cache induces the exact same rule sets.
	opt := ripper.DefaultOptions()
	for _, th := range []int{0, 25} {
		plain := TrainFilter(data, th, opt, nil)
		cached := TrainFilter(data, th, opt, &c)
		if plain.Rules.String() != cached.Rules.String() {
			t.Errorf("t=%d: cached training diverged:\n%s\nvs\n%s",
				th, plain.Rules, cached.Rules)
		}
		looPlain := LeaveOneOut(data, data[0].Name, th, opt, nil)
		looCached := LeaveOneOut(data, data[0].Name, th, opt, &c)
		if looPlain.Rules.String() != looCached.Rules.String() {
			t.Errorf("t=%d: cached leave-one-out diverged", th)
		}
		if looPlain.Label != looCached.Label {
			t.Errorf("t=%d: labels differ: %q vs %q", th, looPlain.Label, looCached.Label)
		}
	}
}

func TestTrainFilterUsesFeatureNames(t *testing.T) {
	data := collectSuite1(t)
	f := TrainFilter(data, 0, ripper.DefaultOptions(), nil)
	if len(f.Rules.Names) != features.Count {
		t.Errorf("rule set has %d attribute names, want %d", len(f.Rules.Names), features.Count)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	data := collectSuite1(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data[:2]); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(back))
	}
	for i, bd := range back {
		if bd.Name != data[i].Name {
			t.Errorf("benchmark %d name %q, want %q", i, bd.Name, data[i].Name)
		}
		if len(bd.Records) != len(data[i].Records) {
			t.Fatalf("%s: %d records, want %d", bd.Name, len(bd.Records), len(data[i].Records))
		}
		for j := range bd.Records {
			a, b := &bd.Records[j], &data[i].Records[j]
			if a.Feat != b.Feat || a.CostNS != b.CostNS || a.CostLS != b.CostLS || a.Execs != b.Execs {
				t.Fatalf("%s record %d drifted through CSV: %+v vs %+v", bd.Name, j, a, b)
			}
		}
	}
	// Training on round-tripped data must behave identically.
	f1 := TrainFilter(data[:2], 0, ripper.DefaultOptions(), nil)
	f2 := TrainFilter(back, 0, ripper.DefaultOptions(), nil)
	if f1.Rules.String() != f2.Rules.String() {
		t.Error("rule sets differ after CSV round trip")
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"wrong,header\n",
		csvHeader() + "\nonly,three,fields\n",
		csvHeader() + "\nb,f,notanumber" + strings.Repeat(",0", 16) + "\n",
	}
	// Non-finite feature values parse as floats but cannot be ordered
	// for induction.
	firstNonFinite := len(cases)
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-Infinity"} {
		for _, col := range []int{0, features.Count - 1} {
			feats := make([]string, features.Count)
			for i := range feats {
				feats[i] = "0"
			}
			feats[col] = bad
			cases = append(cases, csvHeader()+"\nb,f,0,"+strings.Join(feats, ",")+",10,8,1\n")
		}
	}
	for i, c := range cases {
		if _, err := readCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: ReadCSV accepted garbage", i)
		} else if i >= firstNonFinite && !strings.Contains(err.Error(), "line 2: non-finite feature") {
			t.Errorf("case %d: error %q does not name the line and the non-finite feature", i, err)
		}
	}
}

// BenchmarkCollect measures one benchmark's full data collection:
// compile, profile, and schedule every block experimentally on the pooled
// scheduler path.
func BenchmarkCollect(b *testing.B) {
	m := machine.Default().Model
	w := workloads.ByName("compress")
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(w, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectAllParallel measures suite-1 collection fanned across
// GOMAXPROCS workers (the CollectAllJobs default).
func BenchmarkCollectAllParallel(b *testing.B) {
	m := machine.Default().Model
	ws := workloads.Suite1()
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectAllJobs(ws, m, opts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCollectSuperblockData(t *testing.T) {
	m := machine.Default().Model
	w := workloads.ByName("scimark")
	td, err := CollectSuperblockData(w, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Records) == 0 {
		t.Fatal("no traces collected")
	}
	pos := 0
	for i := range td.Records {
		r := &td.Records[i]
		if r.CostNS <= 0 || r.CostLS <= 0 {
			t.Errorf("trace %d: nonpositive costs %d/%d", i, r.CostNS, r.CostLS)
		}
		if r.CostLS > r.CostNS {
			t.Errorf("trace %d: superblock scheduling raised the estimator cost %d -> %d",
				i, r.CostNS, r.CostLS)
		}
		if LabelOf(r, 0) == +1 {
			pos++
		}
	}
	t.Logf("scimark: %d traces, %d beneficial", len(td.Records), pos)
	if pos == 0 {
		t.Error("no beneficial traces on an FP kernel suite member")
	}
}

// A trace record holds the locally scheduled cost in CostNS and the
// superblock cost in CostLS, so LabelOf labels traces as it does blocks.
func TestTraceLabelThresholds(t *testing.T) {
	r := BlockRecord{CostNS: 100, CostLS: 90}
	if LabelOf(&r, 0) != +1 || LabelOf(&r, 10) != 0 {
		t.Error("trace labelling thresholds wrong")
	}
	same := BlockRecord{CostNS: 50, CostLS: 50}
	if LabelOf(&same, 0) != -1 {
		t.Error("no-benefit trace must label negative")
	}
}

// BenchmarkTrainFilter measures induction alone: a filter from the 13
// programs' instances at the paper's threshold t=20, with collection and
// labelling outside the timer.
func BenchmarkTrainFilter(b *testing.B) {
	data := collectAllPrograms(b)
	var c LabelCache
	opt := ripper.DefaultOptions()
	TrainFilter(data, 20, opt, &c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainFilter(data, 20, opt, &c)
	}
}
