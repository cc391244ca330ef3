package experiments

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"schedfilter/internal/machine"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// digest is the FNV-64a hash of s in hex: the byte-identity pin for
// rendered experiment output and induced rule text.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

func newRunner(t *testing.T) *Runner {
	t.Helper()
	return NewRunner(DefaultConfig())
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if g := geomean([]float64{5}); g < 4.99 || g > 5.01 {
		t.Errorf("Geomean(5) = %v", g)
	}
	if geomean(nil) != 0 {
		t.Error("Geomean(nil) should be 0")
	}
	if g := geomean([]float64{0, 4}); g <= 0 {
		t.Error("zero entries must be clamped, not collapse the mean")
	}
}

func TestTable3ErrorsFallWithThreshold(t *testing.T) {
	r := newRunner(t)
	res, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 7 || len(res.Err) != len(Thresholds) {
		t.Fatalf("unexpected shape: %d benchmarks, %d rows", len(res.Benchmarks), len(res.Err))
	}
	first := res.Geomean[0]
	last := res.Geomean[len(res.Geomean)-1]
	if last >= first {
		t.Errorf("error geomean did not fall with t: %.2f -> %.2f", first, last)
	}
	for ti, row := range res.Err {
		for bi, v := range row {
			if v < 0 || v > 100 {
				t.Errorf("error rate out of range at t=%d %s: %v", Thresholds[ti], res.Benchmarks[bi], v)
			}
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestTable4PredictedTimesBelow100(t *testing.T) {
	r := newRunner(t)
	res, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for ti, row := range res.Ratio {
		for bi, v := range row {
			if v > 100.0001 {
				t.Errorf("predicted time above NS at t=%d %s: %v", Thresholds[ti], res.Benchmarks[bi], v)
			}
			if v < 50 {
				t.Errorf("implausibly fast prediction at t=%d %s: %v", Thresholds[ti], res.Benchmarks[bi], v)
			}
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestTable5Monotone(t *testing.T) {
	r := newRunner(t)
	res, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.LS); i++ {
		if res.LS[i] > res.LS[i-1] {
			t.Errorf("LS training count rose from %d to %d at t=%d", res.LS[i-1], res.LS[i], res.Thresholds[i])
		}
	}
	if res.NS == 0 {
		t.Error("no NS instances")
	}
	t.Logf("\n%s", res.Render())
}

func TestTable6CountsPartition(t *testing.T) {
	r := newRunner(t)
	res, err := r.Table6()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.LS {
		if res.LS[i]+res.NS[i] != res.Total {
			t.Errorf("t=%d: LS %d + NS %d != %d", res.Thresholds[i], res.LS[i], res.NS[i], res.Total)
		}
	}
	// The broad trend: high thresholds schedule fewer blocks than t=0.
	if res.LS[len(res.LS)-1] >= res.LS[0] {
		t.Errorf("run-time LS count did not fall from t=0 (%d) to t=50 (%d)", res.LS[0], res.LS[len(res.LS)-1])
	}
	t.Logf("\n%s", res.Render())
}

func TestSchedCostFigure(t *testing.T) {
	r := newRunner(t)
	res, err := r.SchedCostFigure(workloads.SuiteJVM98, []int{0, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	for ti, row := range res.Rel {
		for bi, v := range row {
			if v <= 0 || v > 1.2 {
				t.Errorf("suspicious sched-cost ratio %.3f at t=%d %s", v, res.Thresholds[ti], res.Benchmarks[bi])
			}
		}
		// A higher threshold approves fewer blocks, so it costs less.
		if ti > 0 && res.Geomean[ti] > res.Geomean[ti-1] {
			t.Errorf("cost geomean rose from %.3f to %.3f at t=%d", res.Geomean[ti-1], res.Geomean[ti], res.Thresholds[ti])
		}
	}
	// Filtered scheduling should be well below always-scheduling.
	if res.Geomean[0] > 0.9 {
		t.Errorf("L/N t=0 costs %.2fx of LS; filtering saves almost nothing", res.Geomean[0])
	}
	t.Logf("\n%s", res.RenderSchedCost("Figure 1(a)/2(a) smoke"))
}

// TestPaperCostIsOneQuantity pins that the paper's three readings of
// the t=0 filters' scheduling cost on suite 1 (Figure 1(a), Figure
// 2(a)'s t=0 row and the ablation's induced row) are one number, that
// Figure 1 is Figure 2's t=0 row, and that the artifact is wholly
// deterministic.
func TestPaperCostIsOneQuantity(t *testing.T) {
	p, err := newRunner(t).Paper()
	if err != nil {
		t.Fatal(err)
	}
	fig1a, fig2a, abl := p.Fig1a.Geomean[0], p.Fig2a.Geomean[0], p.Ablation.Rows[0].SchedFrac
	if fig1a != fig2a || fig2a != abl {
		t.Errorf("t=0 scheduling cost: fig1a %v, fig2a %v, ablation %v; want one value", fig1a, fig2a, abl)
	}
	if !reflect.DeepEqual(p.Fig1b.Rel[0], p.Fig2b.Rel[0]) || !reflect.DeepEqual(p.Fig1a.Thresholds, []int{0}) {
		t.Errorf("Figure 1 is not Figure 2's t=0 row: %+v vs %+v", p.Fig1b, p.Fig2b.Rel[0])
	}
	if a := p.Artifact(); a.Timing != nil {
		t.Errorf("paper artifact has a timing section: %+v", a.Timing)
	}
}

func TestAppTimeFigure(t *testing.T) {
	r := newRunner(t)
	res, err := r.AppTimeFigure(workloads.SuiteJVM98, []int{0, 20}) // reduced sweep for test speed
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.LSRel {
		if v > 1.02 {
			t.Errorf("LS slowed %s down: %.4f of NS", res.Benchmarks[i], v)
		}
	}
	for ti, row := range res.Rel {
		for bi, v := range row {
			if v > 1.02 {
				t.Errorf("filter slowed %s down at t=%d: %.4f", res.Benchmarks[bi], res.Thresholds[ti], v)
			}
		}
	}
	t.Logf("\n%s", res.RenderAppTime("Figure 1(b)/2(b) smoke"))
}

func TestFigure4RuleSetPrints(t *testing.T) {
	r := newRunner(t)
	rs, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	text := rs.String()
	if !strings.Contains(text, "list :-") || !strings.Contains(text, "orig :- .") {
		t.Errorf("rule set does not look like Figure 4:\n%s", text)
	}
	t.Logf("\n%s", text)
}

func TestRenderStaticTables(t *testing.T) {
	for _, s := range []string{renderTable1(), renderTable2(), renderTable7()} {
		if len(strings.Split(s, "\n")) < 5 {
			t.Errorf("table too short:\n%s", s)
		}
	}
}

func TestFilterCacheHit(t *testing.T) {
	r := newRunner(t)
	a, err := r.Filter(workloads.SuiteJVM98, "compress", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Filter(workloads.SuiteJVM98, "compress", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("filter cache miss on identical key")
	}
}

func TestAblation(t *testing.T) {
	r := newRunner(t)
	res, err := r.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 ablation rows, got %d", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.AppRel <= 0 || row.AppRel > 1.05 {
			t.Errorf("%s: implausible app ratio %.4f", row.Name, row.AppRel)
		}
	}
	// The oracle has zero classification error by construction.
	if byName["oracle labels"].ErrPct > 0.01 {
		t.Errorf("oracle error = %.2f%%, want 0", byName["oracle labels"].ErrPct)
	}
	// The induced filter should beat the crude size thresholds on error.
	if byName["L/N induced (t=0)"].ErrPct >= byName["size >= 5"].ErrPct {
		t.Errorf("induced filter (%.2f%%) not better than size>=5 (%.2f%%)",
			byName["L/N induced (t=0)"].ErrPct, byName["size >= 5"].ErrPct)
	}
	t.Logf("\n%s", res.Render())
}

func TestCompareModels(t *testing.T) {
	res, err := compareModels(DefaultConfig(), []*machine.Model{machine.Default().Model, machine.MustByName("scalar603").Model})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 2 {
		t.Fatalf("want 2 models, got %d", len(res.Models))
	}
	for mi, name := range res.Models {
		for bi, v := range res.Rel[mi] {
			if v <= 0 || v > 1.05 {
				t.Errorf("%s/%s: implausible ratio %.4f", name, res.Benchmarks[bi], v)
			}
		}
	}
	// The paper's observation: the older scalar machine gains more from
	// static scheduling (a lower LS/NS ratio).
	if res.Geomeans[1] >= res.Geomeans[0] {
		t.Errorf("scalar model gains less than the superscalar: %.4f vs %.4f",
			res.Geomeans[1], res.Geomeans[0])
	}
	t.Logf("\n%s", res.Render())
}

func TestSuperblocksExperiment(t *testing.T) {
	r := newRunner(t)
	res, err := r.Superblocks(workloads.SuiteFP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == 0 {
		t.Fatal("no traces formed")
	}
	for i, v := range res.SuperRel {
		if v <= 0 || v > 1.05 {
			t.Errorf("%s: implausible superblock ratio %.4f", res.Benchmarks[i], v)
		}
	}
	// Superblock scheduling should not lose to local scheduling overall
	// (a small per-benchmark regression from tail-duplication bubbles is
	// tolerated).
	if res.GeoSuper > res.GeoLocal+0.01 {
		t.Errorf("superblock scheduling lost to local: %.4f vs %.4f", res.GeoSuper, res.GeoLocal)
	}
	out := res.Render("Superblock vs local (benefits suite)")
	if got, want := digest(out), "3315e101c7e15a20"; got != want {
		t.Errorf("Render digest %s, want %s", got, want)
	}
	t.Logf("\n%s", out)
}

func TestSuperblockFilterExperiment(t *testing.T) {
	r := newRunner(t)
	res, err := r.SuperblockFilter(workloads.SuiteFP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == 0 {
		t.Fatal("no traces collected")
	}
	if res.Positive == 0 {
		t.Error("no trace benefits from superblock scheduling; the filter has nothing to learn")
	}
	for i, e := range res.ErrPct {
		if e < 0 || e > 60 {
			t.Errorf("%s: implausible trace-filter error %.1f%%", res.Benchmarks[i], e)
		}
	}
	// The filtered protocol must stay between local-only and full
	// superblock scheduling (small tolerance for pass nondeterminism).
	if res.GeoFiltered > res.GeoLocal+0.01 {
		t.Errorf("filtered superblocks (%.4f) worse than local (%.4f)", res.GeoFiltered, res.GeoLocal)
	}
	out := res.Render("Superblock filter (benefits suite, t=0)")
	if got, want := digest(out), "ff0ddbb40f7d7739"; got != want {
		t.Errorf("Render digest %s, want %s", got, want)
	}
	t.Logf("\n%s", out)

	// The leave-one-out trace filters' rule text, pinned per benchmark.
	ws := workloads.Suite2()
	data := make([]*training.BenchData, len(ws))
	for i := range ws {
		if data[i], err = training.CollectSuperblockData(&ws[i], r.cfg.Model, r.cfg.CompileOpts); err != nil {
			t.Fatal(err)
		}
	}
	wantRules := map[string]string{
		"linpack": "337ef3ec2829dee3",
		"power":   "ac442d3c4756915b",
		"bh":      "5d0707c23c85364a",
		"voronoi": "895c006bc0fa16f6",
		"aes":     "8a4019f294648749",
		"scimark": "8b7871346cdb57d6",
	}
	for _, td := range data {
		f := training.LeaveOneOut(data, td.Name, 0, r.cfg.RipperOpts, nil)
		if got, want := digest(f.Rules.Format()), wantRules[td.Name]; got != want {
			t.Errorf("%s: leave-one-out rules digest %s, want %s", td.Name, got, want)
		}
	}
}
