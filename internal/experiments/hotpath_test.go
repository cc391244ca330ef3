package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

// testHotpathConfig keeps the test corpus small (two workloads) so the
// suite stays fast; the committed artifact uses every workload via
// cmd/schedexp.
var testHotpathConfig = HotpathConfig{
	Workloads: []string{"compress", "raytrace"},
}

// TestHotpathDeterministic regenerates the artifact twice and requires
// the deterministic section to match exactly — the property
// `schedexp -check` rests on for BENCH_hotpath.json.
func TestHotpathDeterministic(t *testing.T) {
	a, err := RunHotpath(testHotpathConfig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHotpath(testHotpathConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Deterministic, b.Deterministic) {
		aj, _ := json.MarshalIndent(a.Deterministic, "", "  ")
		bj, _ := json.MarshalIndent(b.Deterministic, "", "  ")
		t.Fatalf("deterministic substructure diverged between runs:\n%s\nvs\n%s", aj, bj)
	}
}

// TestHotpathInvariants checks the suite's acceptance properties on a
// live run: identical schedules, a strictly reduced edge set, the pooled
// allocation budget, and the exact constructed coalescing outcome.
func TestHotpathInvariants(t *testing.T) {
	res, err := RunHotpath(testHotpathConfig)
	if err != nil {
		t.Fatal(err)
	}
	d, tim := res.Deterministic, res.Timing
	if d.Blocks == 0 || d.Instrs == 0 {
		t.Fatalf("empty corpus: %+v", d)
	}
	if !d.SchedulesIdentical {
		t.Fatal("new path's schedules diverged from the reference path")
	}
	if d.ReducedEdges >= d.ReferenceEdges {
		t.Fatalf("reduced builder emitted %d edges, reference %d — no reduction",
			d.ReducedEdges, d.ReferenceEdges)
	}
	if d.BuildAllocsPerBlock != 0 {
		t.Fatalf("pooled DAG build allocates %d/block (exact %.3f), want 0",
			d.BuildAllocsPerBlock, tim.BuildAllocsPerBlock)
	}
	if d.SchedAllocsPerBlock > 1 {
		t.Fatalf("pooled build+schedule allocates %d/block (exact %.3f), want <= 1",
			d.SchedAllocsPerBlock, tim.SchedAllocsPerBlock)
	}
	if d.FlightLeaders != 1 || d.FlightCoalesced != hotpathFollowers {
		t.Fatalf("flight outcome %+v, want 1 leader and %d coalesced",
			d, hotpathFollowers)
	}
	if tim.BuildRefNsPerBlock <= 0 || tim.BuildNewNsPerBlock <= 0 {
		t.Fatalf("timing did not run: %+v", tim)
	}
	// List scheduling permutes instructions within blocks: the same
	// instructions run, in fewer cycles on these two programs.
	if d.SimNSDynInstrs == 0 || d.SimLSDynInstrs != d.SimNSDynInstrs || d.SimLSCycles >= d.SimNSCycles {
		t.Fatalf("simulator pass: ns %d instrs / %d cycles, ls %d / %d", d.SimNSDynInstrs, d.SimNSCycles, d.SimLSDynInstrs, d.SimLSCycles)
	}
	if tim.SimTimedNsPerInstr <= 0 || tim.SimTrainNsPerInstr <= 0 {
		t.Fatalf("simulator timing did not run: %+v", tim)
	}
}
