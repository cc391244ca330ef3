package main

import (
	"fmt"

	"schedfilter"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
	"schedfilter/internal/training"
)

// trainThreshold is the paper's threshold t, the one the factory model
// was induced at.
const trainThreshold = 20

// trainWorkload runs the paper's offline pipeline in-process, one round
// after another: collect training data from every program, then induce
// a filter from it.
type trainWorkload struct {
	cfg   config
	ws    []schedfilter.Workload
	model *schedfilter.Machine
	refID string // FilterID of the first round's filter

	filter *schedfilter.InducedFilter // the last round's
	data   []*schedfilter.BenchData
}

func newTrainWorkload(cfg config, ws []schedfilter.Workload) *trainWorkload {
	return &trainWorkload{cfg: cfg, ws: ws, model: schedfilter.DefaultTarget().Model}
}

func (w *trainWorkload) clients() int { return 1 }

// passLen is 1: a round covers every program.
func (w *trainWorkload) passLen() int { return 1 }

// round runs one collect-and-induce round and checks its filter: the same
// rules as the first round's, and intact through the model-file format.
func (w *trainWorkload) round() error {
	data, err := schedfilter.CollectAllTrainingData(w.ws, w.model, schedfilter.DefaultCompileOptions(), clients)
	if err != nil {
		return err
	}
	f := schedfilter.TrainFilter(data, trainThreshold, schedfilter.DefaultRipperOptions())
	w.filter, w.data = f, data
	return w.check(f)
}

func (w *trainWorkload) check(f *schedfilter.InducedFilter) error {
	id := schedfilter.FilterID(f)
	if w.refID == "" {
		w.refID = id
	}
	if id != w.refID {
		return fmt.Errorf("filter %s, first round induced %s", id, w.refID)
	}
	g, err := schedfilter.ParseFilter(schedfilter.FormatFilter(f))
	if err != nil {
		return fmt.Errorf("filter does not parse back: %w", err)
	}
	if schedfilter.FilterID(g) != id {
		return fmt.Errorf("filter %s reads back as %s", id, schedfilter.FilterID(g))
	}
	return nil
}

func (w *trainWorkload) setUp(bool) error { return w.round() }

func (w *trainWorkload) tearDown() {}

func (w *trainWorkload) op(_ *caller, seq int) sample {
	return sample{pass: seq, failed: w.round() != nil}
}

// appCycles is the paper's simulated running time of the programs under
// the induced filter: Σ over blocks of executions × estimated cycles of
// the order the filter picks.
func (w *trainWorkload) appCycles() (cycles int64, attempted, failed int) {
	for _, bd := range w.data {
		cycles += training.PredictedTime(bd, w.filter)
	}
	return cycles, 0, 0
}

func (w *trainWorkload) layers([]sample) map[string]metric {
	var records, scheduled int
	for _, bd := range w.data {
		ls, _ := training.Decisions(bd, w.filter)
		records += len(bd.Records)
		scheduled += ls
	}
	return map[string]metric{
		"sched.runs_per_op":     {float64(records), "count"},
		"policy.scheduled_frac": {ratio(scheduled, records), "ratio"},
		"codecache.hit_rate":    {0, "ratio"},
		"server.refused":        {0, "count"},
		"training.records":      {float64(records), "count"},
		"ripper.rules":          {float64(len(w.filter.Rules.Rules)), "count"},
	}
}

// replay runs rounds again, serially and in-process, through the entry
// points training.Collect calls, timing each layer per program.
func (w *trainWorkload) replay(rec *recorder, passes int) (map[string]metric, error) {
	opts := schedfilter.DefaultCompileOptions()
	var collect []float64
	var blocks, instrs, labelled int
	for pass := 0; pass < passes; pass++ {
		start := rec.now()
		root, op := rec.root("replay.op", start)
		data := make([]*schedfilter.BenchData, len(w.ws))
		for i := range w.ws {
			bd, err := w.collect(rec, root, op, &w.ws[i], opts)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", w.ws[i].Name, err)
			}
			data[i] = bd
			labelled += len(bd.Records)
			if pass == 0 {
				blocks += bd.Prog.NumBlocks()
				instrs += bd.Prog.NumInstrs()
			}
		}
		collect = append(collect, float64(rec.now()-start))
		var f *schedfilter.InducedFilter
		rec.timed(root, op, "ripper.induce", func() {
			f = schedfilter.TrainFilter(data, trainThreshold, schedfilter.DefaultRipperOptions())
		})
		rec.setEnd(root, rec.now())
		if err := w.check(f); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return map[string]metric{
		"jit.blocks":          {float64(blocks), "count"},
		"jit.instrs":          {float64(instrs), "count"},
		"sched.ns_per_block":  {sum(rec.durations("sched.label")) / float64(labelled), "ns"},
		"features.extract_us": {percentile(rec.durations("features.extract"), 0.5) / 1e3, "us"},
		"sim.profile_ms":      {percentile(rec.durations("sim.profile"), 0.5) / 1e6, "ms"},
		"training.collect_ms": {percentile(collect, 0.5) / 1e6, "ms"},
		"ripper.induce_ms":    {percentile(rec.durations("ripper.induce"), 0.5) / 1e6, "ms"},
	}, nil
}

// collect is training.Collect with each layer it calls timed as a span.
func (w *trainWorkload) collect(rec *recorder, root, op int, wl *schedfilter.Workload, opts schedfilter.CompileOptions) (*schedfilter.BenchData, error) {
	var err error
	var mod *schedfilter.Module
	rec.timed(root, op, "jolt.compile", func() { mod, err = wl.CompileWithOptions(opts.Frontend) })
	if err != nil {
		return nil, err
	}
	var prog *schedfilter.Program
	rec.timed(root, op, "jit.compile", func() { prog, err = schedfilter.CompileModule(mod, opts.JIT) })
	if err != nil {
		return nil, err
	}
	var res *schedfilter.SimResult
	rec.timed(root, op, "sim.profile", func() { res, err = schedfilter.Execute(prog, nil, false) })
	if err != nil {
		return nil, err
	}
	bd := &schedfilter.BenchData{Name: wl.Name, Suite: wl.Suite, Target: machine.TargetNameFor(w.model), Prog: prog}
	rec.timed(root, op, "features.extract", func() {
		for fi, fn := range prog.Fns {
			for bi, b := range fn.Blocks {
				bd.Records = append(bd.Records, schedfilter.BlockRecord{
					Fn: fn.Name, Block: bi, Feat: schedfilter.ExtractFeatures(b), Execs: res.ExecCounts[fi][bi],
				})
			}
		}
	})
	rec.timed(root, op, "sched.label", func() {
		s := sched.GetScratch()
		k := 0
		for _, fn := range prog.Fns {
			for _, b := range fn.Blocks {
				r := sched.ScheduleInstrsScratch(w.model, b.Instrs, s)
				bd.Records[k].CostNS, bd.Records[k].CostLS = r.CostBefore, r.CostAfter
				k++
			}
		}
		sched.PutScratch(s)
	})
	return bd, nil
}
