package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestCrossPoliciesMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("collects both suites per target")
	}
	names := []string{"mpc7410", "test-narrow"}
	// size:0 approves every block and size:1000000 none: a filtered
	// policy's effort lies between theirs, since it pays its decisions on
	// every block and the scheduler's work on those it approves.
	specs := []string{"ripper", "always", "never", "size:5", "cost:10", "size:0", "size:1000000"}
	res, err := CrossPolicies(Config{Jobs: 2}, names, specs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Targets, names) || !reflect.DeepEqual(res.Policies, specs) || res.Threshold != 20 {
		t.Fatalf("bad header: %+v", res)
	}
	if len(res.Cells) != len(specs) {
		t.Fatalf("want %d rows, got %d", len(specs), len(res.Cells))
	}
	var lsRow, nsRow, allRow, noneRow []PolicyCell
	for pi, spec := range specs {
		row := res.Cells[pi]
		if len(row) != len(names) {
			t.Fatalf("row %q has %d cells, want %d", spec, len(row), len(names))
		}
		switch spec {
		case "always":
			lsRow = row
		case "never":
			nsRow = row
		case "size:0":
			allRow = row
		case "size:1000000":
			noneRow = row
		}
		for ti, c := range row {
			// Ratios are percentages of NS; per block a policy picks the
			// NS or LS estimate, so every ratio lies in (0, 100].
			if c.Ratio <= 0 || c.Ratio > 100.000001 {
				t.Fatalf("cell [%q][%d] ratio %v outside (0, 100]", spec, ti, c.Ratio)
			}
			if c.Name == "" || c.ID == "" {
				t.Fatalf("cell [%q][%d] lacks identity: %+v", spec, ti, c)
			}
		}
	}
	for ti := range names {
		// LS is both bounds' anchor: full effort, and no policy beats its
		// predicted time (per block there is nothing better to pick).
		if lsRow[ti].EffortVsLS != 100 {
			t.Fatalf("LS effort %v != 100", lsRow[ti].EffortVsLS)
		}
		if nsRow[ti].EffortVsLS != 0 || nsRow[ti].LSDecisions != 0 {
			t.Fatalf("NS did work: %+v", nsRow[ti])
		}
		if nsRow[ti].Ratio < 100-1e-9 || nsRow[ti].Ratio > 100+1e-9 {
			t.Fatalf("NS ratio %v != 100", nsRow[ti].Ratio)
		}
		if d := allRow[ti].EffortVsLS - 100 - noneRow[ti].EffortVsLS; noneRow[ti].EffortVsLS <= 0 || d < -1e-9 || d > 1e-9 {
			t.Fatalf("approving every block costs %v, approving none %v; want 100 + the latter", allRow[ti].EffortVsLS, noneRow[ti].EffortVsLS)
		}
		for pi, spec := range specs {
			c := res.Cells[pi][ti]
			if c.Ratio < lsRow[ti].Ratio-1e-9 {
				t.Fatalf("row %q beats the LS bound: %v < %v", spec, c.Ratio, lsRow[ti].Ratio)
			}
			if spec != "always" && spec != "never" && (c.EffortVsLS < noneRow[ti].EffortVsLS || c.EffortVsLS > allRow[ti].EffortVsLS) {
				t.Fatalf("row %q effort %v outside [%v, %v], the costs of approving no block and every block",
					spec, c.EffortVsLS, noneRow[ti].EffortVsLS, allRow[ti].EffortVsLS)
			}
		}
	}
	// The ripper row's ID must embed the per-target rule hash — two
	// targets' trained filters are distinct cache identities.
	if !strings.Contains(res.Cells[0][0].ID, "@") {
		t.Fatalf("ripper cell ID %q lacks a rule hash", res.Cells[0][0].ID)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestCrossPoliciesBadInputs(t *testing.T) {
	if _, err := CrossPolicies(Config{}, []string{"vax"}, []string{"always"}, 0); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := CrossPolicies(Config{}, []string{"test-narrow"}, []string{"nonesuch"}, 0); err == nil {
		t.Fatal("unknown policy spec accepted")
	}
}
