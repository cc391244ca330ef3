package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"schedfilter"
	"schedfilter/internal/obs"
	"schedfilter/internal/sched"
	"schedfilter/internal/server"
)

const (
	// factoryModel is the model cmd/schedserved embeds and serves by
	// default; the benchmark reads it from the checkout so it always
	// serves the model the daemon ships.
	factoryModel = "cmd/schedserved/factory_model.txt"
	// serverCacheWeight is the server's default scheduled-block cache
	// bound, used for the replay's cache too.
	serverCacheWeight = 1 << 20
	// saltRange bounds the salts of schedule-unique; the reference totals
	// were checked not to depend on the salt anywhere in it.
	saltRange = 1 << 40
)

// program is one bundled program with the answers an operation on it
// must give.
type program struct {
	name   string
	raw    string // the bundled source
	source string // what the oracles compiled: raw, salted with 0 for schedule-unique
	blocks int
	ret    int64 // the bytecode interpreter's return value
	// want holds the reference scheduler's totals over the blocks the
	// workload's policy approves.
	want schedTotals
}

type schedTotals struct {
	blocks, scheduled     int
	costBefore, costAfter int64
}

func salted(src string, salt int64) string {
	return src + "\nvar benchSalt int = " + strconv.FormatInt(salt, 10) + ";\n"
}

// httpWorkload drives the compile service over HTTP: schedule-warm,
// schedule-unique or execute.
type httpWorkload struct {
	cfg    config
	progs  []program
	model  *schedfilter.Machine
	policy schedfilter.Policy // the policy the requests are served by
	// refCycles is each program's simulated cycle count on the first
	// warm-up pass; every later execute answer must repeat it.
	refCycles []int64

	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	hc     *http.Client
	base   string
}

func newHTTPWorkload(cfg config, ws []schedfilter.Workload) (*httpWorkload, error) {
	factory, err := loadFactory(cfg.root)
	if err != nil {
		return nil, err
	}
	w := &httpWorkload{cfg: cfg, model: schedfilter.DefaultTarget().Model, policy: factory}
	if cfg.workload == "schedule-unique" {
		w.policy = schedfilter.AlwaysSchedule
	}
	for _, wl := range ws {
		p := program{name: wl.Name, raw: wl.Source, source: wl.Source}
		if cfg.workload == "schedule-unique" {
			p.source = salted(wl.Source, 0)
		}
		mod, err := schedfilter.CompileJolt(p.source)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", wl.Name, err)
		}
		ir, err := schedfilter.Interpret(mod, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: interpreter: %w", wl.Name, err)
		}
		p.ret = ir.Ret
		prog, err := schedfilter.CompileModule(mod, schedfilter.DefaultJITOptions())
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", wl.Name, err)
		}
		p.blocks = prog.NumBlocks()
		p.want = referenceTotals(w.model, prog, w.policy)
		w.progs = append(w.progs, p)
	}
	w.refCycles = make([]int64, len(w.progs))
	return w, nil
}

func loadFactory(root string) (*schedfilter.InducedFilter, error) {
	text, err := os.ReadFile(filepath.Join(root, factoryModel))
	if err != nil {
		return nil, fmt.Errorf("factory model: %w", err)
	}
	return schedfilter.ParseFilter(string(text))
}

// referenceTotals runs the retained reference scheduler over every block
// the policy approves and sums what a schedule response reports.
func referenceTotals(m *schedfilter.Machine, p *schedfilter.Program, pol schedfilter.Policy) schedTotals {
	var t schedTotals
	for _, fn := range p.Fns {
		for _, b := range fn.Blocks {
			t.blocks++
			if !schedfilter.Schedules(pol, schedfilter.ExtractFeatures(b)) {
				continue
			}
			t.scheduled++
			r := sched.ScheduleInstrsReference(m, b.Instrs)
			t.costBefore += int64(r.CostBefore)
			t.costAfter += int64(r.CostAfter)
		}
	}
	return t
}

func (w *httpWorkload) clients() int { return clients }

func (w *httpWorkload) passLen() int { return len(w.progs) }

func (w *httpWorkload) setUp(first bool) error {
	factory, err := loadFactory(w.cfg.root)
	if err != nil {
		return err
	}
	w.srv = server.New(server.Config{Filter: factory})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: opTimeout}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns ErrServerClosed on tearDown
	}()
	w.tr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	w.hc = &http.Client{Transport: w.tr, Timeout: opTimeout}
	w.base = "http://" + ln.Addr().String()

	for i := range w.progs {
		var s sample
		if err := w.do(i, 0, &s, false); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.progs[i].name, err)
		}
		if w.cfg.workload != "execute" {
			continue
		}
		if first {
			w.refCycles[i] = s.cycles
		} else if s.cycles != w.refCycles[i] {
			return fmt.Errorf("warm-up %s: %d cycles, first warm-up ran %d", w.progs[i].name, s.cycles, w.refCycles[i])
		}
	}
	return nil
}

func (w *httpWorkload) tearDown() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // an expired drain leaves nothing to do
	<-w.served
	w.srv.Close()
	w.tr.CloseIdleConnections()
	w.hs = nil
}

func (w *httpWorkload) op(c *caller, seq int) sample {
	i, pass := c.next(seq)
	var salt int64
	if w.cfg.workload == "schedule-unique" {
		salt = c.rng.Int63n(saltRange)
	}
	s := sample{pass: pass}
	err := w.do(i, salt, &s, true)
	s.failed = err != nil
	return s
}

// do sends one request for program i and checks the answer. Timed
// requests time themselves into s and hold schedule-warm to zero cache
// misses; warm-up requests are exempt, since they fill the cache.
func (w *httpWorkload) do(i int, salt int64, s *sample, timed bool) error {
	p := &w.progs[i]
	in := server.ProgramInput{Workload: p.name}
	var sr server.ScheduleResponse
	var er server.ExecuteResponse
	var req, out any = server.ScheduleRequest{ProgramInput: in}, &sr
	path := "/v1/schedule"
	switch w.cfg.workload {
	case "schedule-unique":
		in = server.ProgramInput{Source: salted(p.raw, salt), Policy: "always"}
		req = server.ScheduleRequest{ProgramInput: in, NoCache: true}
	case "execute":
		path, req, out = "/v1/execute", server.ExecuteRequest{ProgramInput: in}, &er
	}
	if err := w.post(path, req, out, s); err != nil {
		return err
	}
	if timed && w.cfg.tamper != nil {
		w.cfg.tamper(out)
	}
	if path == "/v1/execute" {
		s.setTrace(er.Trace)
		s.blocks, s.scheduled, s.hits, s.runs = p.blocks, er.Scheduled, er.CacheHits, er.CacheMisses
		s.cycles, s.dynInstrs = er.Cycles, er.DynInstrs
		if er.Ret != p.ret {
			return fmt.Errorf("%s: ret %d, interpreter %d", p.name, er.Ret, p.ret)
		}
		if timed && er.Cycles != w.refCycles[i] {
			return fmt.Errorf("%s: %d cycles, first pass %d", p.name, er.Cycles, w.refCycles[i])
		}
		return nil
	}
	s.setTrace(sr.Trace)
	s.blocks, s.scheduled, s.hits, s.runs, s.coalesced = sr.Blocks, sr.Scheduled, sr.CacheHits, sr.CacheMisses, sr.Coalesced
	if sr.NotScheduled+sr.Scheduled != sr.Blocks {
		return fmt.Errorf("%s: %d scheduled + %d not scheduled != %d blocks", p.name, sr.Scheduled, sr.NotScheduled, sr.Blocks)
	}
	if w.cfg.workload == "schedule-unique" {
		s.runs = sr.Scheduled // no_cache: every approved block runs the scheduler
	} else if timed && sr.CacheMisses != 0 {
		return fmt.Errorf("%s: %d cache misses after warm-up", p.name, sr.CacheMisses)
	}
	got := schedTotals{sr.Blocks, sr.Scheduled, sr.CostBefore, sr.CostAfter}
	if got != p.want {
		return fmt.Errorf("%s: schedule totals %+v, reference scheduler %+v", p.name, got, p.want)
	}
	return nil
}

// post sends one JSON request and decodes a 200 answer into out; it
// marks a 429 or 503 answer as refused.
func (w *httpWorkload) post(path string, req, out any, s *sample) error {
	buf, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := w.hc.Post(w.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		s.refused = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// appCycles is the simulated run time of one pass over the programs as
// this workload's requests compile them. execute measured it on its first
// warm-up pass; the schedule workloads ask the server to execute each
// program under their policy (schedule-unique with a salt of 0, so the
// sum does not depend on the seed).
func (w *httpWorkload) appCycles() (cycles int64, attempted, failed int) {
	for i, p := range w.progs {
		if w.cfg.workload == "execute" {
			cycles += w.refCycles[i]
			continue
		}
		in := server.ProgramInput{Workload: p.name}
		if w.cfg.workload == "schedule-unique" {
			in = server.ProgramInput{Source: p.source, Policy: "always"}
		}
		var resp server.ExecuteResponse
		var s sample
		attempted++
		if err := w.post("/v1/execute", server.ExecuteRequest{ProgramInput: in}, &resp, &s); err != nil || resp.Ret != p.ret {
			failed++
			continue
		}
		cycles += resp.Cycles
	}
	return cycles, attempted, failed
}

// layers derives the server-side layer metrics from the timed samples.
func (w *httpWorkload) layers(ss []sample) map[string]metric {
	var queue, unattr, outside, lookup, dag, list, est, simMs []float64
	var blocks, scheduled, hits, runs, coalesced, refused, ops int
	var simNs, dyn int64
	for _, s := range ss {
		if s.refused {
			refused++
		}
		if s.failed {
			continue
		}
		ops++
		blocks += s.blocks
		scheduled += s.scheduled
		hits += s.hits
		runs += s.runs
		if s.coalesced {
			coalesced++
		}
		dyn += s.dynInstrs
		if !s.traced {
			continue
		}
		queue = append(queue, ms(s.phase(obs.PhaseQueueWait)))
		unattr = append(unattr, ms(s.serverNs-s.spannedNs))
		outside = append(outside, ms(s.end-s.start-s.serverNs))
		lookup = append(lookup, ms(s.phase(obs.PhaseCacheLookup)))
		dag = append(dag, ms(s.phase(obs.PhaseDAGBuild)))
		list = append(list, ms(s.phase(obs.PhaseListSchedule)))
		est = append(est, ms(s.phase(obs.PhaseEstimator)))
		if ns := s.phase(obs.PhaseSim); ns > 0 {
			simMs = append(simMs, ms(ns))
			simNs += ns
		}
	}
	out := map[string]metric{
		"server.queue_wait_ms":     {percentile(queue, 0.5), "ms"},
		"server.unattributed_ms":   {percentile(unattr, 0.5), "ms"},
		"server.outside_trace_ms":  {percentile(outside, 0.5), "ms"},
		"server.refused":           {float64(refused), "count"},
		"codecache.lookup_ms":      {percentile(lookup, 0.5), "ms"},
		"codecache.hit_rate":       {ratio(hits, scheduled), "ratio"},
		"codecache.coalesced_frac": {ratio(coalesced, ops), "ratio"},
		"sched.dag_build_ms":       {percentile(dag, 0.5), "ms"},
		"sched.list_schedule_ms":   {percentile(list, 0.5), "ms"},
		"sched.estimator_ms":       {percentile(est, 0.5), "ms"},
		"sched.runs_per_op":        {ratio(runs, ops), "count"},
		"policy.scheduled_frac":    {ratio(scheduled, blocks), "ratio"},
	}
	if len(simMs) > 0 {
		out["sim.run_ms"] = metric{percentile(simMs, 0.5), "ms"}
		out["sim.ns_per_dyn_instr"] = metric{float64(simNs) / float64(dyn), "ns"}
	}
	return out
}

// replay runs caller 0's first passes again, serially and in-process,
// through the entry points the server calls, timing each layer. The
// feature and policy layers are timed on their own before the scheduling
// pass, which repeats them as the server's pass does.
func (w *httpWorkload) replay(rec *recorder, passes int) (map[string]metric, error) {
	var cache *schedfilter.ScheduleCache
	if w.cfg.workload != "schedule-unique" {
		// Warm the replay's cache as the warm-up pass warmed the server's.
		cache = schedfilter.NewScheduleCache(serverCacheWeight)
		for _, p := range w.progs {
			prog, err := schedfilter.CompileSource(p.source)
			if err != nil {
				return nil, err
			}
			schedfilter.ScheduleWithCache(w.model, prog, w.policy, cache)
		}
	}
	c := newCaller(w.cfg.seed, 0, len(w.progs))
	var blocks, instrs, schedBlocks int
	for seq := 0; seq < passes*len(w.progs); seq++ {
		i, pass := c.next(seq)
		src := w.progs[i].source
		if w.cfg.workload == "schedule-unique" {
			src = salted(w.progs[i].raw, c.rng.Int63n(saltRange))
		}
		nb, ni, err := w.replayOp(rec, i, src, cache)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", w.progs[i].name, err)
		}
		schedBlocks += nb
		if pass == 0 {
			blocks += nb
			instrs += ni
		}
	}
	out := map[string]metric{
		"jit.blocks":               {float64(blocks), "count"},
		"jit.instrs":               {float64(instrs), "count"},
		"sched.ns_per_block":       {sum(rec.durations("sched.pass")) / float64(schedBlocks), "ns"},
		"codecache.fingerprint_us": {percentile(rec.durations("codecache.fingerprint"), 0.5) / 1e3, "us"},
	}
	if w.cfg.workload != "schedule-unique" {
		out["features.extract_us"] = metric{percentile(rec.durations("features.extract"), 0.5) / 1e3, "us"}
		out["policy.decide_us"] = metric{percentile(rec.durations("policy.decide"), 0.5) / 1e3, "us"}
	}
	return out, nil
}

func (w *httpWorkload) replayOp(rec *recorder, i int, src string, cache *schedfilter.ScheduleCache) (blocks, instrs int, err error) {
	p := &w.progs[i]
	root, op := rec.root("replay.op", rec.now())
	defer func() { rec.setEnd(root, rec.now()) }()
	var mod *schedfilter.Module
	rec.timed(root, op, "jolt.compile", func() { mod, err = schedfilter.CompileJolt(src) })
	if err != nil {
		return 0, 0, err
	}
	var prog *schedfilter.Program
	rec.timed(root, op, "jit.compile", func() { prog, err = schedfilter.CompileModule(mod, schedfilter.DefaultJITOptions()) })
	if err != nil {
		return 0, 0, err
	}
	if w.cfg.workload != "schedule-unique" {
		vs := make([]schedfilter.FeatureVector, 0, prog.NumBlocks())
		rec.timed(root, op, "features.extract", func() {
			for _, fn := range prog.Fns {
				for _, b := range fn.Blocks {
					vs = append(vs, schedfilter.ExtractFeatures(b))
				}
			}
		})
		rec.timed(root, op, "policy.decide", func() {
			for _, v := range vs {
				w.policy.Decide(v)
			}
		})
	}
	rec.timed(root, op, "codecache.fingerprint", func() {
		schedfilter.FingerprintProgram(w.model, schedfilter.FilterID(w.policy), prog)
	})
	var st schedfilter.ScheduleStats
	rec.timed(root, op, "sched.pass", func() { st = schedfilter.ScheduleWithCacheTimed(w.model, prog, w.policy, cache) })
	if got := (schedTotals{st.Blocks, st.Scheduled, st.CostBefore, st.CostAfter}); got != p.want {
		return 0, 0, fmt.Errorf("schedule totals %+v, reference scheduler %+v", got, p.want)
	}
	if w.cfg.workload == "execute" {
		var res *schedfilter.SimResult
		rec.timed(root, op, "sim.run", func() { res, err = schedfilter.Execute(prog, w.model, true) })
		if err != nil {
			return 0, 0, err
		}
		if res.Ret != p.ret || res.Cycles != w.refCycles[i] {
			return 0, 0, errors.New("simulated answer differs from the served one")
		}
	}
	return prog.NumBlocks(), prog.NumInstrs(), nil
}
