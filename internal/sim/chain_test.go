package sim_test

import (
	"testing"

	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// chainCap is the node cap of machine's chained segment memo: a run that
// reaches it issues the rest of its segments one instruction at a time.
const chainCap = 4096

// entriesCap bounds the distinct (entry node, bubble) pairs one segment is
// issued from: twice the four ways of machine's inline edge set. A run
// past it means the set is sized for traffic the programs no longer have.
const entriesCap = 8

// TestChainBounded pins the assumption chained segment timing rests on:
// over every target and bundled program, unscheduled and list-scheduled,
// a timed run's whole normalized pipeline state takes few distinct values
// and moves between them along few distinct transitions, far below the
// node cap, and each segment is entered from few of them.
func TestChainBounded(t *testing.T) {
	targets := machine.All()
	if testing.Short() || raceEnabled {
		targets = []*machine.Target{machine.Default()}
	}
	type size struct{ nodes, edges, entries int }
	most := make([]size, len(targets))
	for _, w := range workloads.All() {
		ns := compileDefault(t, &w)
		for i, tg := range targets {
			ls := ns.Clone()
			listSchedule(tg.Model, ls)
			for _, v := range []struct {
				name string
				prog *ir.Program
			}{{"ns", ns}, {"ls", ls}} {
				_, issue, err := sim.RunState(v.prog, sim.Config{Timed: true, Model: tg.Model})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", tg.Name, w.Name, v.name, err)
				}
				nodes, edges, entries := issue.ChainSize()
				if nodes >= chainCap {
					t.Errorf("%s/%s/%s: %d nodes reach the cap %d", tg.Name, w.Name, v.name, nodes, chainCap)
				}
				if entries > entriesCap {
					t.Errorf("%s/%s/%s: a segment is entered from %d (node, bubble) pairs, above %d", tg.Name, w.Name, v.name, entries, entriesCap)
				}
				m := &most[i]
				m.nodes, m.edges, m.entries = max(m.nodes, nodes), max(m.edges, edges), max(m.entries, entries)
			}
		}
	}
	for i, tg := range targets {
		t.Logf("%s: at most %d nodes and %d edges per run, and %d entries per segment", tg.Name, most[i].nodes, most[i].edges, most[i].entries)
	}
}
