package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"reflect"
	"sync"
	"testing"

	"schedfilter/internal/codecache"
	"schedfilter/internal/core"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// memoRef is what a request for one source under one policy must answer,
// computed from a fresh compile that no memo has touched.
type memoRef struct {
	blocks, scheduled     int
	costBefore, costAfter int64
	programKey            string
	ret, cycles           int64
}

func memoReference(t *testing.T, src, spec string) memoRef {
	t.Helper()
	p, err := policy.FromSpec(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	prog := compileSource(t, src)
	m := machine.Default().Model
	key := codecache.ProgramKey(m.Name, policy.ID(p), prog)
	st := core.Apply(m, prog, p, core.Pass{})
	res, err := sim.Run(prog, sim.Config{Timed: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return memoRef{st.Blocks, st.Scheduled, st.CostBefore, st.CostAfter, hex.EncodeToString(key[:]), res.Ret, res.Cycles}
}

// compileSource compiles Jolt source with the default JIT options,
// outside any server.
func compileSource(t *testing.T, src string) *ir.Program {
	t.Helper()
	mod, err := jolt.Compile(src, jolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jit.Compile(mod, jit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func checkSchedule(t *testing.T, what string, got *ScheduleResponse, want memoRef) {
	t.Helper()
	if got.Blocks != want.blocks || got.Scheduled != want.scheduled ||
		got.CostBefore != want.costBefore || got.CostAfter != want.costAfter || got.ProgramKey != want.programKey {
		t.Errorf("%s: blocks %d scheduled %d cost %d→%d key %s, fresh compile gives %+v",
			what, got.Blocks, got.Scheduled, got.CostBefore, got.CostAfter, got.ProgramKey, want)
	}
}

func checkExecute(t *testing.T, what string, got *ExecuteResponse, want memoRef) {
	t.Helper()
	if got.Ret != want.ret || got.Cycles != want.cycles || got.Scheduled != want.scheduled {
		t.Errorf("%s: ret %d cycles %d scheduled %d, fresh compile gives %+v",
			what, got.Ret, got.Cycles, got.Scheduled, want)
	}
}

// The scheduling pass and the simulator work on the caller's copy: after
// schedule, execute and an uncached schedule of a memoized source, every
// answer still matches a fresh compile, so the pristine program was never
// reordered.
func TestMemoHandsOutPrivateCopies(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	want := memoReference(t, testSource, "LS")
	in := ProgramInput{Source: testSource}
	for i, step := range []string{"schedule", "schedule", "execute", "schedule no_cache", "schedule", "execute"} {
		what := fmt.Sprintf("step %d (%s)", i, step)
		if step == "execute" {
			_, r := post[ExecuteResponse](t, ts.URL+"/v1/execute", ExecuteRequest{ProgramInput: in})
			checkExecute(t, what, &r, want)
			continue
		}
		_, r := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{ProgramInput: in, NoCache: step != "schedule"})
		checkSchedule(t, what, &r, want)
	}
	if st := s.memo.stats(); st.hits != 4 || st.misses != 2 {
		t.Errorf("memo stats %+v, want 4 hits after 2 misses", st)
	}
}

// Admission on second sighting: a source seen once leaves nothing behind,
// a source seen twice is kept and served from the memo, as /metrics shows.
func TestMemoAdmitsOnSecondSighting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CompileRequest{ProgramInput: ProgramInput{Source: testSource}}
	post[compileResponse](t, ts.URL+"/v1/compile", req)
	if b := scrape(t, ts.URL, "schedserved_compile_memo_bytes"); b != 0 {
		t.Fatalf("a source seen once is retained: memo bytes %d", b)
	}
	post[compileResponse](t, ts.URL+"/v1/compile", req)
	if b := scrape(t, ts.URL, "schedserved_compile_memo_bytes"); b == 0 {
		t.Fatal("a source seen twice is not retained")
	}
	post[compileResponse](t, ts.URL+"/v1/compile", CompileRequest{ProgramInput: ProgramInput{Workload: "compress"}})
	post[compileResponse](t, ts.URL+"/v1/compile", req)
	if h, m := scrape(t, ts.URL, "schedserved_compile_memo_hits_total"),
		scrape(t, ts.URL, "schedserved_compile_memo_misses_total"); h != 1 || m != 3 {
		t.Fatalf("memo hits %d misses %d, want 1 and 3", h, m)
	}
}

// Two sources that share a doorkeeper slot and are requested in turn are
// both admitted on their second sighting, and a third source in the slot
// pushes out the older sighting.
func TestMemoAdmitsCollidingSources(t *testing.T) {
	m := newProgramMemo()
	slot := func(src string) uint64 { return maphash.String(m.seed, src) % memoDoorSlots }
	var srcs []string
	for i := 0; len(srcs) < 3; i++ {
		src := fmt.Sprintf("func main() int { return %d; }", i)
		if len(srcs) == 0 || slot(src) == slot(srcs[0]) {
			srcs = append(srcs, src)
		}
	}
	a, b, c := srcs[0], srcs[1], srcs[2]
	prog := compileSource(t, testSource)
	for i, step := range []struct {
		src   string
		admit bool
	}{{a, false}, {b, false}, {a, true}, {b, true}, {c, false}, {c, true}} {
		if got := m.admit(step.src, prog) != nil; got != step.admit {
			t.Fatalf("step %d: admitted %v, want %v", i, got, step.admit)
		}
	}
	seed := m.seed
	m = newProgramMemo()
	m.seed = seed
	for i, src := range []string{a, b, c, a} {
		if m.admit(src, prog) != nil {
			t.Fatalf("step %d: admitted a source whose sighting was pushed out", i)
		}
	}
}

// sizeSpec returns the size:n policy and its ID.
func sizeSpec(t *testing.T, n int) (policy.Policy, string) {
	t.Helper()
	f, err := policy.FromSpec(fmt.Sprintf("size:%d", n), "")
	if err != nil {
		t.Fatal(err)
	}
	return f, policy.ID(f)
}

// storeSizePass runs the size:n pass on a blockCopy of e's program under
// the default target, as a server does, offers it to e's records, and
// returns the policy ID.
func storeSizePass(t *testing.T, m *programMemo, e *memoEntry, n int) string {
	t.Helper()
	f, id := sizeSpec(t, n)
	mdl := machine.Default().Model
	prog := blockCopy(e.prog)
	st := core.Apply(mdl, prog, f, core.Pass{})
	e.storePass(m, passRecord{model: mdl.Name, policyID: id, key: codecache.ProgramKey(mdl.Name, id, e.prog), st: st, prog: prog})
	return id
}

// recordBytes is what a record of prog, a scheduled blockCopy of
// pristine, should weigh: its node, names and blocks, plus every
// instruction array the pass replaced.
func recordBytes(pristine, prog *ir.Program, model, policyID string) int64 {
	n := memoNodeBytes + len(model) + len(policyID) + memoBlockBytes*pristine.NumBlocks()
	for fi, fn := range prog.Fns {
		for bi, b := range fn.Blocks {
			if orig := pristine.Fns[fi].Blocks[bi]; len(b.Instrs) > 0 && &b.Instrs[0] != &orig.Instrs[0] {
				n += memoInstrBytes * len(b.Instrs)
			}
		}
	}
	return int64(n)
}

// A flood of distinct sources, each seen twice and served under two
// policies, never holds more than the byte bound; the least recently used
// entries go first.
func TestMemoBytesBounded(t *testing.T) {
	w := workloads.ByName("compress")
	prog := compileSource(t, w.Source)
	source := func(i int) string { return fmt.Sprintf("%s\n// %d\n", w.Source, i) }
	m := newProgramMemo()
	n := 3 * memoMaxBytes / (len(w.Source) + memoInstrBytes*prog.NumInstrs())
	for i := 0; i < n; i++ {
		m.admit(source(i), prog)
		e := m.admit(source(i), prog)
		if e == nil {
			t.Fatalf("source %d not admitted on its second sighting", i)
		}
		for _, size := range []int{4, 8} {
			storeSizePass(t, m, e, size)
		}
		if st := m.stats(); st.bytes > memoMaxBytes {
			t.Fatalf("after %d sources the memo holds %d bytes, bound %d", i+1, st.bytes, memoMaxBytes)
		}
	}
	if st := m.stats(); st.evictions == 0 || len(m.entries) >= n {
		t.Fatalf("%d sources left %d entries, stats %+v", n, len(m.entries), st)
	}
	if m.get(source(n-1)) == nil || m.get(source(0)) != nil {
		t.Fatal("eviction is not least recently used first")
	}
	// Stored block keys count toward the bound, once per model.
	e, before := m.get(source(n-1)), m.stats().bytes
	mdl := machine.Default().Model
	e.blockKeys(m, mdl)
	e.blockKeys(m, mdl)
	if got, want := m.stats().bytes-before, int64(32*prog.NumBlocks()); got != want {
		t.Fatalf("storing one model's block keys added %d bytes, want %d", got, want)
	}

	// Many distinct size:N policies on one source: each of the first
	// memoMaxPolicies records is charged once, however often its pass is
	// offered (size:4 and size:8 were charged above), the rest are not
	// stored and charged nothing, and every stored program is the pass's.
	for size := 0; size < 4*memoMaxPolicies; size++ {
		before := e.bytes
		var id string
		for i := 0; i < 2; i++ {
			id = storeSizePass(t, m, e, size)
		}
		st := m.stats()
		if st.bytes > memoMaxBytes {
			t.Fatalf("after %d policies the memo holds %d bytes, bound %d", size+1, st.bytes, memoMaxBytes)
		}
		want := int64(0)
		r := e.pass(mdl.Name, id)
		if r == nil {
			if size < memoMaxPolicies {
				t.Fatalf("%s: not stored with %d policies served", id, size)
			}
		} else {
			if size != 4 && size != 8 {
				want = recordBytes(e.prog, r.prog, mdl.Name, id)
			}
			f, _ := sizeSpec(t, size)
			fresh := prog.Clone()
			core.Apply(mdl, fresh, f, core.Pass{})
			if r.prog.String() != fresh.String() {
				t.Fatalf("%s: the record's program differs from a fresh pass", id)
			}
		}
		if got := int64(e.bytes - before); got != want {
			t.Fatalf("%s offered twice added %d bytes, want %d", id, got, want)
		}
	}
}

// The oracle for replayed passes: for every bundled program, every target
// and the fixed, threshold, portfolio and factory policies, a replayed
// schedule and execute reply equals, on every field but the timings, the
// reply of a server that holds no memo entry for the source and whose
// block cache is warm; the record's program prints as core.Apply leaves a
// fresh compile; and the pristine program is unchanged afterwards.
func TestMemoReplayMatchesFreshPass(t *testing.T) {
	if testing.Short() || raceEnabled {
		// A serial test has no race to find, and the detector would
		// slow its 780 simulations tenfold.
		t.Skip("runs every bundled program on the simulator 60 times")
	}
	factory := factoryPolicy(t)
	s := New(Config{Filter: factory, Workers: 1})
	defer s.Close()
	ref := New(Config{Filter: factory, Workers: 1})
	defer ref.Close()
	salt := 0
	// fresh answers req for a source ref has never seen, so it never
	// memoizes one: each call appends a new comment to the source.
	fresh := func(do func(context.Context, []byte) (any, error), src string, req func(ProgramInput) any, in ProgramInput) any {
		salt++
		in.Workload, in.Source = "", fmt.Sprintf("%s\n// %d\n", src, salt)
		return call(t, do, req(in))
	}
	// replyFields is a reply as a client decodes it, timings zeroed.
	replyFields := func(t *testing.T, v any) map[string]any {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return normalizeReply(t, body)
	}
	schedReq := func(in ProgramInput) any { return ScheduleRequest{ProgramInput: in} }
	execReq := func(in ProgramInput) any { return ExecuteRequest{ProgramInput: in} }
	specs := []string{"always", "never", "size:8", "cost:40", "portfolio:size:12+cost:30", "default"}
	for _, w := range workloads.All() {
		in := ProgramInput{Workload: w.Name}
		for i := 0; i < 2; i++ {
			call(t, s.doCompile, CompileRequest{ProgramInput: in})
		}
		e := s.memo.get(w.Source)
		if e == nil {
			t.Fatalf("%s: not memoized after two requests", w.Name)
		}
		pristine := e.prog.String()
		for _, tgt := range machine.All() {
			for _, spec := range specs {
				what := fmt.Sprintf("%s on %s under %s", w.Name, tgt.Name, spec)
				in := ProgramInput{Workload: w.Name, Target: tgt.Name, Policy: spec}
				first := call(t, s.doSchedule, ScheduleRequest{ProgramInput: in}).(*ScheduleResponse)
				r := e.pass(tgt.Model.Name, first.PolicyID)
				if r == nil {
					t.Fatalf("%s: no pass recorded", what)
				}
				// The reference cache is warmed under the same policy first.
				fresh(ref.doSchedule, w.Source, schedReq, in)
				for _, ep := range []struct {
					do, refDo func(context.Context, []byte) (any, error)
					req       func(ProgramInput) any
				}{{s.doSchedule, ref.doSchedule, schedReq}, {s.doExecute, ref.doExecute, execReq}} {
					got := replyFields(t, call(t, ep.do, ep.req(in)))
					want := replyFields(t, fresh(ep.refDo, w.Source, ep.req, in))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: replay answers %v, a server without the memo entry %v", what, got, want)
					}
				}
				var f policy.Policy = factory
				if spec != "default" {
					var err error
					if f, err = policy.FromSpec(spec, tgt.Name); err != nil {
						t.Fatal(err)
					}
				}
				want := compileSource(t, w.Source)
				core.Apply(tgt.Model, want, f, core.Pass{})
				if r.prog.String() != want.String() {
					t.Fatalf("%s: the record's program differs from a fresh pass", what)
				}
			}
		}
		if e.prog.String() != pristine {
			t.Fatalf("%s: the pristine program changed", w.Name)
		}
	}
}

// The recorded fingerprint is per (model, policy): the same source under
// two policies gets two keys, each equal to a fresh fingerprint, however
// the requests interleave, and each record holds the key
// codecache.ProgramKey gives.
func TestMemoFingerprintPerPolicy(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	want := map[string]memoRef{"LS": memoReference(t, testSource, "LS"), "NS": memoReference(t, testSource, "NS")}
	if want["LS"].programKey == want["NS"].programKey {
		t.Fatal("two policies share one fresh fingerprint")
	}
	for i, spec := range []string{"LS", "NS", "LS", "LS", "NS", "NS", "LS"} {
		_, r := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
			ProgramInput: ProgramInput{Source: testSource, Policy: spec}})
		checkSchedule(t, fmt.Sprintf("request %d (%s)", i, spec), &r, want[spec])
	}
	e := s.memo.get(testSource)
	m := machine.Default().Model
	for _, f := range []policy.Policy{policy.Always{}, policy.Never{}} {
		id := policy.ID(f)
		r := e.pass(m.Name, id)
		if r == nil {
			t.Fatalf("%s: no pass recorded", id)
		}
		if key := codecache.ProgramKey(m.Name, id, compileSource(t, testSource)); r.key != key {
			t.Errorf("%s: recorded key %x, codecache.ProgramKey gives %x", id, r.key, key)
		}
	}
}

// The stored block keys are per model: whatever order targets ask in,
// each gets the fingerprints a fresh codecache.BlockKey gives under its
// own model.
func TestMemoBlockKeysPerModel(t *testing.T) {
	m := newProgramMemo()
	m.admit(testSource, compileSource(t, testSource))
	e := m.admit(testSource, compileSource(t, testSource))
	targets := machine.All()
	for round := 0; round < 2; round++ {
		for i := range targets {
			tgt := targets[(i+round)%len(targets)]
			keys := e.blockKeys(m, tgt.Model)
			bi := 0
			for _, fn := range e.prog.Fns {
				for _, b := range fn.Blocks {
					if keys[bi] != codecache.BlockKey(tgt.Model.Name, b.Instrs) {
						t.Fatalf("round %d, %s: block %d has a stale key", round, tgt.Name, bi)
					}
					bi++
				}
			}
			if bi != len(keys) {
				t.Fatalf("%s: %d keys for %d blocks", tgt.Name, len(keys), bi)
			}
		}
	}
}

// Concurrent schedule and execute requests for one source, racing its
// admission and then sharing its memo entry, all answer as a fresh
// compile does.
func TestMemoConcurrentScheduleExecute(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	want := memoReference(t, testSource, "LS")
	in := ProgramInput{Source: testSource}
	schedBody, err := json.Marshal(ScheduleRequest{ProgramInput: in})
	if err != nil {
		t.Fatal(err)
	}
	execBody, err := json.Marshal(ExecuteRequest{ProgramInput: in})
	if err != nil {
		t.Fatal(err)
	}
	const par = 8
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			v, err := s.doSchedule(context.Background(), schedBody)
			if err != nil {
				t.Errorf("schedule %d: %v", i, err)
				return
			}
			checkSchedule(t, fmt.Sprintf("schedule %d", i), v.(*ScheduleResponse), want)
		}()
		go func() {
			defer wg.Done()
			v, err := s.doExecute(context.Background(), execBody)
			if err != nil {
				t.Errorf("execute %d: %v", i, err)
				return
			}
			checkExecute(t, fmt.Sprintf("execute %d", i), v.(*ExecuteResponse), want)
		}()
	}
	wg.Wait()
	if st := s.memo.stats(); st.hits+st.misses != 2*par {
		t.Errorf("memo stats %+v, want %d lookups", st, 2*par)
	}
}

// factoryPolicy is the induced filter schedserved ships as its default.
func factoryPolicy(t *testing.T) *policy.Induced {
	t.Helper()
	text, err := os.ReadFile("../../cmd/schedserved/factory_model.txt")
	if err != nil {
		t.Fatal(err)
	}
	f, err := policy.ParseInduced(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// call runs one compile-path handler on a JSON-encoded request.
func call(t *testing.T, do func(context.Context, []byte) (any, error), req any) any {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	v, err := do(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The pass and the simulator share the memo's instruction arrays, so
// they must never write into them: after warm schedule, execute and
// uncached requests under the factory filter and under a policy that
// reorders many blocks, with online learning off and on, the memoized
// program still equals a fresh compile, operand slices included, and each
// record's program is a block-level copy of it that the pass reordered.
func TestMemoProgramStaysPristine(t *testing.T) {
	for _, learn := range []bool{false, true} {
		cfg := Config{Filter: factoryPolicy(t)}
		if learn {
			cfg = onlineConfig()
			cfg.Filter = factoryPolicy(t)
		}
		s := New(cfg)
		for _, src := range []string{testSource, workloads.ByName("compress").Source} {
			// Predict requests, which the online collector does not see,
			// admit the source, so its first observation reads the memo's
			// arrays.
			for i := 0; i < 2; i++ {
				call(t, s.doPredict, PredictRequest{ProgramInput: ProgramInput{Source: src}})
			}
			for _, spec := range []string{"LS", "default"} {
				in := ProgramInput{Source: src, Policy: spec}
				for i := 0; i < 3; i++ {
					call(t, s.doSchedule, ScheduleRequest{ProgramInput: in})
					call(t, s.doExecute, ExecuteRequest{ProgramInput: in})
					call(t, s.doSchedule, ScheduleRequest{ProgramInput: in, NoCache: true})
					call(t, s.doPredict, PredictRequest{ProgramInput: in})
				}
			}
			if learn {
				s.Online().Drain()
			}
			e := s.memo.get(src)
			if e == nil {
				t.Fatalf("online %v: source not memoized", learn)
			}
			if !reflect.DeepEqual(e.prog, compileSource(t, src)) {
				t.Errorf("online %v: the memoized program no longer equals a fresh compile", learn)
			}
			for _, f := range []policy.Policy{policy.Always{}, cfg.Filter} {
				checkRecord(t, e, f)
			}
		}
		s.Close()
	}
}

// checkRecord checks the structure of e's record under the default target
// and f: every function and block is a fresh struct over the pristine
// successor array, a block gets a fresh instruction array exactly when
// the reference scheduler reorders it under f, and the program prints as core.Apply
// leaves a fresh compile.
func checkRecord(t *testing.T, e *memoEntry, f policy.Policy) {
	t.Helper()
	m := machine.Default().Model
	r := e.pass(m.Name, policy.ID(f))
	if r == nil {
		t.Fatalf("%s: no pass recorded", f.Name())
	}
	want := e.prog.Clone()
	core.Apply(m, want, f, core.Pass{})
	if r.prog.String() != want.String() {
		t.Fatalf("%s: the record's program differs from a fresh pass", f.Name())
	}
	for fi, fn := range e.prog.Fns {
		if r.prog.Fns[fi] == fn {
			t.Errorf("%s: function %s shared with the pristine program", f.Name(), fn.Name)
		}
		for i, b := range fn.Blocks {
			got := r.prog.Fns[fi].Blocks[i]
			reordered := policy.Schedules(f, features.ExtractBlock(b)) && sched.ScheduleInstrsReference(m, b.Instrs).Changed
			switch {
			case got == b:
				t.Errorf("%s: %s block %d shared with the pristine program", f.Name(), fn.Name, i)
			case len(b.Succs) > 0 && &got.Succs[0] != &b.Succs[0]:
				t.Errorf("%s: %s block %d copied its successors", f.Name(), fn.Name, i)
			case len(b.Instrs) > 0 && (&got.Instrs[0] != &b.Instrs[0]) != reordered:
				t.Errorf("%s: %s block %d has a fresh instruction array %v, reordered by the reference %v",
					f.Name(), fn.Name, i, &got.Instrs[0] != &b.Instrs[0], reordered)
			}
		}
	}
}

// A warm schedule request replays its source's recorded pass: no program
// copy, no policy or block hash, no decisions, no cache lookup per block.
// Its allocations are the body decode, the workload lookup, the memo
// lookup and the reply (15 per request for compress and for scimark),
// where a deep program copy, a per-request rule hash and per-block
// fingerprints cost 327 for compress and 375 for scimark. A warm execute
// request adds the simulator's allocations and no scheduling ones.
func TestWarmScheduleAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are exact only without race or coverage instrumentation")
	}
	const maxAllocs = 17
	s := New(Config{Filter: factoryPolicy(t), Workers: 1})
	defer s.Close()
	for _, name := range []string{"compress", "scimark"} {
		in := ProgramInput{Workload: name}
		body, err := json.Marshal(ScheduleRequest{ProgramInput: in})
		if err != nil {
			t.Fatal(err)
		}
		var resp *ScheduleResponse
		run := func() {
			v, err := s.doSchedule(context.Background(), body)
			if err != nil {
				t.Fatal(err)
			}
			resp = v.(*ScheduleResponse)
		}
		for i := 0; i < 3; i++ {
			run() // first sighting, admission and the recorded pass, then a replay
		}
		allocs := testing.AllocsPerRun(50, run)
		t.Logf("warm schedule of %s: %.0f allocs/request, %d blocks, %d scheduled", name, allocs, resp.Blocks, resp.Scheduled)
		if resp.CacheMisses != 0 || resp.Scheduled == 0 {
			t.Fatalf("%s: not a warm request: %+v", name, resp)
		}
		if allocs > maxAllocs {
			t.Errorf("warm schedule of %s allocates %.0f times per request, want at most %d", name, allocs, maxAllocs)
		}

		// Execute replays the same record: its scheduling step allocates
		// nothing, and the whole request no more than the simulator plus
		// what a warm schedule request allocates.
		var req ExecuteRequest
		execBody, err := json.Marshal(ExecuteRequest{ProgramInput: in})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := s.prepare(context.Background(), execBody, &req, &req.ProgramInput, &req.FilterSpec)
		if err != nil {
			t.Fatal(err)
		}
		var replayed *ir.Program
		p := new(prepared)
		schedAllocs := testing.AllocsPerRun(50, func() {
			*p = pr
			r, coalesced := s.schedule(p, false)
			if coalesced {
				t.Fatal("a serial request coalesced")
			}
			replayed = r.prog
		})
		if r := pr.entry.pass(pr.mt.model.Name, policy.ID(pr.f)); r == nil || replayed != r.prog {
			t.Fatalf("%s: execute did not replay the recorded program", name)
		}
		if schedAllocs != 0 {
			t.Errorf("execute of %s allocates %.0f times to schedule a replay, want 0", name, schedAllocs)
		}
		cfg := sim.Config{Timed: true, Model: pr.mt.model, StepLimit: s.stepLimit}
		simAllocs := testing.AllocsPerRun(5, func() {
			if _, err := sim.Run(replayed, cfg); err != nil {
				t.Fatal(err)
			}
		})
		execAllocs := testing.AllocsPerRun(5, func() {
			if _, err := s.doExecute(context.Background(), execBody); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("warm execute of %s: %.0f allocs/request, %.0f in the simulator", name, execAllocs, simAllocs)
		if execAllocs > simAllocs+maxAllocs {
			t.Errorf("warm execute of %s allocates %.0f times per request, the simulator %.0f, want at most %d more",
				name, execAllocs, simAllocs, maxAllocs)
		}
	}
}

// BenchmarkWarmSchedule measures a warm /v1/schedule of the bundled
// programs in turn under the factory filter, in process: every source is
// memoized and replays its recorded pass. Run with -benchmem.
func BenchmarkWarmSchedule(b *testing.B) {
	text, err := os.ReadFile("../../cmd/schedserved/factory_model.txt")
	if err != nil {
		b.Fatal(err)
	}
	f, err := policy.ParseInduced(string(text))
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Filter: f, Workers: 1})
	defer s.Close()
	var bodies [][]byte
	for _, w := range workloads.All() {
		body, err := json.Marshal(ScheduleRequest{ProgramInput: ProgramInput{Workload: w.Name}})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for i := 0; i < 3*len(bodies); i++ {
		if _, err := s.doSchedule(context.Background(), bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.doSchedule(context.Background(), bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}
