package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"schedfilter/internal/codecache"
	"schedfilter/internal/core"
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
	mod, err := jolt.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jit.Compile(mod, jit.DefaultOptions())
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

// A flood of distinct sources, each seen twice, never holds more than the
// byte bound; the least recently used entries go first.
func TestMemoBytesBounded(t *testing.T) {
	w := workloads.ByName("compress")
	prog := compileSource(t, w.Source)
	source := func(i int) string { return fmt.Sprintf("%s\n// %d\n", w.Source, i) }
	m := newProgramMemo()
	n := 3 * memoMaxBytes / (len(w.Source) + memoInstrBytes*prog.NumInstrs())
	for i := 0; i < n; i++ {
		m.admit(source(i), prog)
		if m.admit(source(i), prog) == nil {
			t.Fatalf("source %d not admitted on its second sighting", i)
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
