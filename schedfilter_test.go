package schedfilter

import (
	"strings"
	"testing"

	"schedfilter/internal/features"
)

const tinyProgram = `
func main() int {
  var s int = 0;
  for (var i int = 0; i < 64; i = i + 1) { s = s + i * 3; }
  return s;
}
`

func TestCompileSourceAndExecute(t *testing.T) {
	prog, err := CompileSource(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	res, err := Execute(prog, m, false)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(0); i < 64; i++ {
		want += i * 3
	}
	if res.Ret != want {
		t.Errorf("ret = %d, want %d", res.Ret, want)
	}
}

func TestInterpretMatchesExecute(t *testing.T) {
	mod, err := CompileJolt(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := Interpret(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileModule(mod, DefaultJITOptions())
	if err != nil {
		t.Fatal(err)
	}
	sv, err := Execute(prog, NewMachine(), false)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Ret != sv.Ret {
		t.Errorf("interp %d != sim %d", iv.Ret, sv.Ret)
	}
}

func TestScheduleProtocols(t *testing.T) {
	m := NewMachine()
	for _, f := range []Policy{NeverSchedule, AlwaysSchedule, SizeFilter(8)} {
		prog, err := CompileSource(tinyProgram)
		if err != nil {
			t.Fatal(err)
		}
		st := Schedule(m, prog, f)
		if st.Blocks == 0 {
			t.Fatalf("%s: no blocks seen", f.Name())
		}
		res, err := Execute(prog, m, true)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if res.Cycles <= 0 {
			t.Errorf("%s: no cycles reported", f.Name())
		}
	}
}

func TestFeatureAndCostAPI(t *testing.T) {
	prog, err := CompileSource(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	found := false
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			v := ExtractFeatures(b)
			if v.BBLen() != b.Len() {
				t.Errorf("feature bbLen %d != block len %d", v.BBLen(), b.Len())
			}
			if c := EstimateCost(m, b); c <= 0 && b.Len() > 0 {
				t.Errorf("nonpositive cost %d for nonempty block", c)
			}
			ScheduleBlock(m, b.Clone())
			found = true
		}
	}
	if !found {
		t.Fatal("no blocks compiled")
	}
}

func TestRuleSetRoundTripThroughFacade(t *testing.T) {
	text := "(  10/   1) list :- bbLen >= 12, floats >= 0.25.\n(  90/   4) orig :- .\n"
	rs, err := ParseRuleSet(text)
	if err != nil {
		t.Fatal(err)
	}
	f := NewRuleFilter(rs, "demo")
	if f.Name() != "demo" {
		t.Errorf("name = %q", f.Name())
	}
	var big FeatureVector
	big[0] = 20
	if i := featureIndex("floats"); i > 0 {
		big[i] = 0.5
	}
	if !Schedules(f, big) {
		t.Error("matching vector rejected")
	}
}

func featureIndex(name string) int {
	for i, n := range features.Names {
		if n == name {
			return i
		}
	}
	return -1
}

func TestWorkloadRegistry(t *testing.T) {
	all := Workloads()
	if len(all) != 13 {
		t.Fatalf("want 13 workloads, got %d", len(all))
	}
	if len(WorkloadsSuite1()) != 7 {
		t.Error("suite sizes wrong")
	}
	w, err := WorkloadByName("compress")
	if err != nil || w.Name != "compress" {
		t.Fatalf("WorkloadByName: %v", err)
	}
	if _, err := WorkloadByName("doom"); err == nil {
		t.Error("unknown workload should error")
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
	}
}

func TestTrainDefaultFilterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("collects the full suite")
	}
	m := NewMachine()
	f, err := TrainDefaultFilter(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rules.Rules) == 0 {
		t.Fatal("no rules induced")
	}
	text := f.Rules.String()
	if !strings.Contains(text, "list :-") {
		t.Errorf("unexpected rule format:\n%s", text)
	}
	// The trained filter must be usable on fresh code.
	prog, err := CompileSource(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	st := Schedule(m, prog, f)
	if st.Scheduled+st.NotScheduled != st.Blocks {
		t.Errorf("stats do not partition: %+v", st)
	}
}

func TestCollectTrainingDataShape(t *testing.T) {
	w, err := WorkloadByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	bd, err := CollectTrainingData(w, NewMachine(), DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.Records) < 50 {
		t.Errorf("only %d records", len(bd.Records))
	}
	var execs int64
	for i := range bd.Records {
		execs += bd.Records[i].Execs
	}
	if execs == 0 {
		t.Error("profile counted no executions")
	}
}

func TestFeatureNamesStable(t *testing.T) {
	want := []string{"bbLen", "branchs", "calls", "loads", "stores", "returns",
		"integers", "floats", "systems", "peis", "gcpoints", "tspoints", "yieldpoints"}
	if len(features.Names) != len(want) {
		t.Fatalf("have %d names, want %d", len(features.Names), len(want))
	}
	for i := range want {
		if features.Names[i] != want[i] {
			t.Errorf("features.Names[%d] = %q, want %q", i, features.Names[i], want[i])
		}
	}
}
