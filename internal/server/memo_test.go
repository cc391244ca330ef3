package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
	post[CompileResponse](t, ts.URL+"/v1/compile", req)
	if b := scrape(t, ts.URL, "schedserved_compile_memo_bytes"); b != 0 {
		t.Fatalf("a source seen once is retained: memo bytes %d", b)
	}
	post[CompileResponse](t, ts.URL+"/v1/compile", req)
	if b := scrape(t, ts.URL, "schedserved_compile_memo_bytes"); b == 0 {
		t.Fatal("a source seen twice is not retained")
	}
	post[CompileResponse](t, ts.URL+"/v1/compile", CompileRequest{ProgramInput: ProgramInput{Workload: "compress"}})
	post[CompileResponse](t, ts.URL+"/v1/compile", req)
	if h, m := scrape(t, ts.URL, "schedserved_compile_memo_hits_total"),
		scrape(t, ts.URL, "schedserved_compile_memo_misses_total"); h != 1 || m != 3 {
		t.Fatalf("memo hits %d misses %d, want 1 and 3", h, m)
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
			f, id := sizeSpec(t, size)
			e.decisions(m, f, id)
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
	// memoMaxPolicies vectors is charged once, however often it is served
	// (size:4 and size:8 were charged above), the rest are decided afresh
	// and charged nothing, and every answer equals core.Decide's.
	for size := 0; size < 4*memoMaxPolicies; size++ {
		f, id := sizeSpec(t, size)
		before := m.stats().bytes
		for i := 0; i < 2; i++ {
			if got := e.decisions(m, f, id); !reflect.DeepEqual(got, core.Decide(prog, f)) {
				t.Fatalf("%s: decisions differ from core.Decide", id)
			}
		}
		st := m.stats()
		if st.bytes > memoMaxBytes {
			t.Fatalf("after %d policies the memo holds %d bytes, bound %d", size+1, st.bytes, memoMaxBytes)
		}
		want := int64(0)
		if storedDecisions(e, id) == nil {
			if size < memoMaxPolicies {
				t.Fatalf("%s: not stored with %d policies served", id, size)
			}
		} else if size != 4 && size != 8 {
			want = int64(memoNodeBytes + len(id) + prog.NumBlocks())
		}
		if got := st.bytes - before; got != want {
			t.Fatalf("%s served twice added %d bytes, want %d", id, got, want)
		}
	}
}

// storedDecisions returns the decision vector e keeps for policyID, or
// nil.
func storedDecisions(e *memoEntry, policyID string) []bool {
	for d := e.decs.Load(); d != nil; d = d.next {
		if d.policyID == policyID {
			return d.schedule
		}
	}
	return nil
}

// The oracle for memoized decisions: for every bundled program, every
// target and the fixed, threshold, portfolio and factory policies, the
// vector a served request leaves in the memo equals the policy's
// per-block decision on a fresh compile.
func TestMemoDecisionsMatchDecide(t *testing.T) {
	factory := factoryPolicy(t)
	s := New(Config{Filter: factory, Workers: 1})
	defer s.Close()
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
		fresh := compileSource(t, w.Source)
		for _, tgt := range machine.All() {
			for _, spec := range specs {
				in := ProgramInput{Workload: w.Name, Target: tgt.Name, Policy: spec}
				r := call(t, s.doSchedule, ScheduleRequest{ProgramInput: in}).(*ScheduleResponse)
				var f policy.Policy = factory
				if spec != "default" {
					var err error
					if f, err = policy.FromSpec(spec, tgt.Name); err != nil {
						t.Fatal(err)
					}
				}
				got := storedDecisions(e, r.PolicyID)
				if len(got) != fresh.NumBlocks() {
					t.Fatalf("%s on %s under %s: %d stored decisions for %d blocks", w.Name, tgt.Name, spec, len(got), fresh.NumBlocks())
				}
				bi, approved := 0, 0
				for _, fn := range fresh.Fns {
					for _, b := range fn.Blocks {
						if want, _ := f.Decide(features.ExtractBlock(b)); got[bi] != want {
							t.Fatalf("%s on %s under %s: block %d stored %v, Decide says %v", w.Name, tgt.Name, spec, bi, got[bi], want)
						}
						if got[bi] {
							approved++
						}
						bi++
					}
				}
				if r.Scheduled != approved {
					t.Errorf("%s on %s under %s: %d blocks scheduled, %d approved", w.Name, tgt.Name, spec, r.Scheduled, approved)
				}
			}
		}
	}
}

// The memoized fingerprint is per (model, policy): the same source under
// two policies gets two keys, each equal to a fresh fingerprint, however
// the requests interleave.
func TestMemoFingerprintPerPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := map[string]memoRef{"LS": memoReference(t, testSource, "LS"), "NS": memoReference(t, testSource, "NS")}
	if want["LS"].programKey == want["NS"].programKey {
		t.Fatal("two policies share one fresh fingerprint")
	}
	for i, spec := range []string{"LS", "NS", "LS", "LS", "NS", "NS", "LS"} {
		_, r := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
			ProgramInput: ProgramInput{Source: testSource, Policy: spec}})
		checkSchedule(t, fmt.Sprintf("request %d (%s)", i, spec), &r, want[spec])
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

// The pass and the simulator share the memo's instruction arrays, and
// every block the policy does not approve, so they must never write into
// them: after warm schedule, execute and uncached requests under the
// factory filter and under a policy that reorders many blocks, with online
// learning off and on, the memoized program still equals a fresh compile,
// operand slices included. Under the factory filter the scheduling copy
// shares exactly the unapproved blocks with the pristine program.
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
			checkSchedCopy(t, e, storedDecisions(e, policy.ID(cfg.Filter)))
		}
		s.Close()
	}
}

// checkSchedCopy checks the structure of the scheduling copy e builds for
// the decision vector dec: approved blocks are fresh structs with the
// pristine contents, every other block is the pristine pointer, and a
// vector that approves nothing gets the pristine program itself.
func checkSchedCopy(t *testing.T, e *memoEntry, dec []bool) {
	t.Helper()
	if len(dec) != e.prog.NumBlocks() {
		t.Fatalf("%d decisions for %d blocks", len(dec), e.prog.NumBlocks())
	}
	cp := e.schedCopy(dec)
	approved, bi := 0, 0
	for fi, fn := range e.prog.Fns {
		for i, b := range fn.Blocks {
			got := cp.Fns[fi].Blocks[i]
			switch {
			case !dec[bi] && got != b:
				t.Errorf("%s block %d: unapproved but copied", fn.Name, i)
			case dec[bi] && got == b:
				t.Errorf("%s block %d: approved but shared with the pristine program", fn.Name, i)
			case dec[bi] && !reflect.DeepEqual(*got, *b):
				t.Errorf("%s block %d: the copy differs from the pristine block", fn.Name, i)
			}
			if dec[bi] {
				approved++
			}
			bi++
		}
	}
	if (cp == e.prog) != (approved == 0) {
		t.Errorf("%d approved blocks, program shared %v", approved, cp == e.prog)
	}
}

// A warm schedule request reuses everything that depends only on the
// source: no program copy beyond the approved blocks, no policy hash, no
// block hash, no decisions. Its allocations stay far below what a deep program copy, a
// per-request rule hash and per-block fingerprints cost (327 per request
// for compress, 375 for scimark).
func TestWarmScheduleAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are exact only without race or coverage instrumentation")
	}
	s := New(Config{Filter: factoryPolicy(t), Workers: 1})
	defer s.Close()
	for _, name := range []string{"compress", "scimark"} {
		body, err := json.Marshal(ScheduleRequest{ProgramInput: ProgramInput{Workload: name}})
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
			run() // first sighting, admission, then a warm cache
		}
		allocs := testing.AllocsPerRun(50, run)
		t.Logf("warm schedule of %s: %.0f allocs/request, %d blocks, %d scheduled", name, allocs, resp.Blocks, resp.Scheduled)
		if resp.CacheMisses != 0 || resp.Scheduled == 0 {
			t.Fatalf("%s: not a warm request: %+v", name, resp)
		}
		if allocs > 80 {
			t.Errorf("warm schedule of %s allocates %.0f times per request, want at most 80", name, allocs)
		}
	}
}

// BenchmarkWarmSchedule measures a warm /v1/schedule of the bundled
// programs in turn under the factory filter, in process: every source is
// memoized, every approved block replays from the cache, and the decisions
// come from the memo. Run with -benchmem.
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
