package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"schedfilter/internal/workloads"
)

// TestAdaptiveAcceptance is the PR's end-to-end acceptance bar: the
// adaptive tier with a factory filter must schedule at most 60% of the
// hot-swapped blocks while recovering at least 90% of the always-schedule
// (LS) cycle improvement at steady state, aggregated over every bundled
// benchmark.
func TestAdaptiveAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptive sweep in -short mode")
	}
	r := newRunner(t)
	res, err := r.Adaptive(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), len(workloads.All()); got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	if res.ScheduledFrac > 0.60 {
		t.Errorf("scheduled fraction %.3f > 0.60", res.ScheduledFrac)
	}
	if res.RecoveredFrac < 0.90 {
		t.Errorf("recovered fraction %.3f < 0.90", res.RecoveredFrac)
	}
	for _, row := range res.Rows {
		// Steady state must never be slower than never-scheduling: the
		// optimized tier only reorders within blocks.
		if row.AdaptiveSteadyCycles > row.NSCycles {
			t.Errorf("%s: steady state %d cycles slower than NS %d",
				row.Bench, row.AdaptiveSteadyCycles, row.NSCycles)
		}
		// Every promotion ends up installed, online or at shutdown.
		if row.Installed+row.InstalledPost != row.Promotions {
			t.Errorf("%s: installed %d+%d != %d promotions",
				row.Bench, row.Installed, row.InstalledPost, row.Promotions)
		}
	}

	// The artifact's deterministic section round-trips; the timing
	// section carries one row per benchmark.
	buf, err := json.Marshal(res.Artifact())
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Deterministic AdaptiveResult `json:"deterministic"`
		Timing        struct {
			Rows []AdaptiveRowTiming `json:"rows"`
		} `json:"timing"`
	}
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	det := back.Deterministic
	if len(det.Rows) != len(res.Rows) || det.RecoveredFrac != res.RecoveredFrac {
		t.Error("JSON artifact does not round-trip")
	}
	if det.Rows[0].Bench == "" {
		t.Error("bench names missing from JSON")
	}
	if len(back.Timing.Rows) != len(res.Rows) || back.Timing.Rows[0].Bench != det.Rows[0].Bench {
		t.Errorf("timing rows do not match the deterministic rows: %+v", back.Timing.Rows)
	}
}

func TestAdaptiveRender(t *testing.T) {
	a := &AdaptiveResult{
		FilterLabel:   "L/N t=0 (factory)",
		Rows:          []AdaptiveRow{{Bench: "compress", NSCycles: 100, LSCycles: 90, AdaptiveSteadyCycles: 91, RecoveredFrac: 0.9, BlocksScheduled: 3, BlocksConsidered: 10}},
		ScheduledFrac: 0.3,
		RecoveredFrac: 0.9,
	}
	out := a.Render()
	for _, want := range []string{"compress", "adp-steady", "90.0%", "recovers"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
