package core

import (
	"testing"

	"schedfilter/internal/features"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
)

func TestFixedFilterNames(t *testing.T) {
	if (policy.Always{}).Name() != "LS" || (policy.Never{}).Name() != "NS" {
		t.Error("fixed protocol names wrong")
	}
	var v features.Vector
	if !policy.Schedules(policy.Always{}, v) || policy.Schedules(policy.Never{}, v) {
		t.Error("fixed protocol decisions wrong")
	}
}

func TestSizeThreshold(t *testing.T) {
	f := policy.SizeThreshold{MinLen: 7}
	var small, big features.Vector
	small[0] = 6
	big[0] = 7
	if policy.Schedules(f, small) {
		t.Error("block below threshold scheduled")
	}
	if !policy.Schedules(f, big) {
		t.Error("block at threshold not scheduled")
	}
	if f.Name() != "size>=7" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestApplyFilterNeverDoesNothing(t *testing.T) {
	m := machine.Default().Model
	p := genProgram(1, 12)
	orig := p.Clone()
	st := Apply(m, p, policy.Never{}, Pass{})
	if st.Scheduled != 0 || st.NotScheduled != 12 || st.Blocks != 12 {
		t.Errorf("NS stats = %+v", st)
	}
	if p.String() != orig.String() {
		t.Error("NS modified the program")
	}
}

func TestApplyFilterAlwaysSchedulesAll(t *testing.T) {
	m := machine.Default().Model
	p := genProgram(2, 12)
	st := Apply(m, p, policy.Always{}, Pass{})
	if st.Scheduled != 12 || st.NotScheduled != 0 {
		t.Errorf("LS stats = %+v", st)
	}
	if st.CostAfter > st.CostBefore {
		t.Errorf("LS raised total cost: %d -> %d", st.CostBefore, st.CostAfter)
	}
}

func TestApplyFilterPartitionsBlocks(t *testing.T) {
	m := machine.Default().Model
	p := genProgram(3, 20)
	st := Apply(m, p, policy.SizeThreshold{MinLen: 25}, Pass{})
	if st.Scheduled+st.NotScheduled != st.Blocks {
		t.Errorf("stats do not partition: %+v", st)
	}
	if st.Scheduled == 0 || st.NotScheduled == 0 {
		t.Skipf("degenerate split for this seed: %+v", st)
	}
}

func TestApplyFilterTimesThePass(t *testing.T) {
	m := machine.Default().Model
	p := genProgram(4, 10)
	st := Apply(m, p, policy.Always{}, Pass{})
	if st.SchedTime <= 0 {
		t.Error("scheduling pass reported zero time")
	}
}

func TestInducedFilterDelegatesToRules(t *testing.T) {
	// One rule: bbLen >= 10 → schedule.
	rs := &ripper.RuleSet{
		Names: features.Names[:],
		Rules: []ripper.Rule{{Conds: []ripper.Condition{{Attr: 0, LE: false, Val: 10}}}},
	}
	f := policy.NewInduced(rs, "")
	var small, big features.Vector
	small[0] = 5
	big[0] = 15
	if policy.Schedules(f, small) || !policy.Schedules(f, big) {
		t.Error("induced filter does not follow its rules")
	}
	if f.Name() != "L/N" {
		t.Errorf("default label = %q", f.Name())
	}
}
