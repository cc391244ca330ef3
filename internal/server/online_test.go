package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"schedfilter/internal/online"
)

// Distinct sources so live traffic fills the online reservoir with more
// than one program's blocks.
const testSource2 = `
func mix(n int) int {
  var a int = 1;
  var b int = 2;
  for (var i int = 0; i < n; i = i + 1) { a = a * 3 + b; b = b + a / 4 - i; }
  return a + b;
}
func main() int { return mix(48); }
`

const testSource3 = `
func acc(n int) int {
  var s int = 0;
  for (var i int = 0; i < n; i = i + 1) {
    s = s + i * i - (i / 3) + (s / 7);
  }
  return s;
}
func main() int { return acc(40) - acc(10); }
`

func onlineConfig() Config {
	return Config{
		Online: true,
		OnlineOpts: online.Config{
			Targets:    []string{"mpc7410"},
			MinSamples: 1,
		},
	}
}

func get[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

func TestOnlineEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, e := get[ErrorResponse](t, ts.URL+"/v1/filters"); code != 400 || !strings.Contains(e.Error, "disabled") {
		t.Fatalf("filters on a static server: %d %+v", code, e)
	}
	for _, path := range []string{"/v1/retrain", "/v1/filters/1/activate", "/v1/filters/rollback"} {
		if code, e := post[ErrorResponse](t, ts.URL+path, FilterActionRequest{}); code != 400 || e.Error == "" {
			t.Fatalf("%s on a static server: %d %+v", path, code, e)
		}
	}
}

func TestOnlineLifecycle(t *testing.T) {
	s, ts := newTestServer(t, onlineConfig())

	// Health advertises the loop and the boot version.
	code, h := get[HealthResponse](t, ts.URL+"/healthz")
	if code != 200 || !h.Online || h.FilterVersion != 1 {
		t.Fatalf("health: %d %+v", code, h)
	}

	// Default-filter traffic is served by registry version 1 and feeds
	// the reservoir.
	for _, src := range []string{testSource, testSource2, testSource3} {
		code, resp := post[ScheduleResponse](t, ts.URL+"/v1/schedule",
			ScheduleRequest{ProgramInput: ProgramInput{Source: src}})
		if code != 200 {
			t.Fatalf("schedule: status %d", code)
		}
		if resp.FilterVersion != 1 {
			t.Fatalf("default traffic served by v%d, want boot v1", resp.FilterVersion)
		}
	}
	// Pinned filters bypass the registry and report version 0.
	if _, resp := post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{
		ProgramInput: ProgramInput{Source: testSource, Policy: "LS"},
	}); resp.FilterVersion != 0 {
		t.Fatalf("pinned filter reported registry version %d", resp.FilterVersion)
	}

	// Retrain: the queue drains, a candidate is induced and registered.
	code, rr := post[RetrainResponse](t, ts.URL+"/v1/retrain", RetrainRequest{})
	if code != 200 || len(rr.Reports) != 1 {
		t.Fatalf("retrain: %d %+v", code, rr)
	}
	rep := rr.Reports[0]
	if rep.Target != "mpc7410" || rep.Samples == 0 || rep.Version < 2 {
		t.Fatalf("retrain report: %+v", rep)
	}

	// The registry lists boot + candidate with provenance.
	code, fl := get[FiltersResponse](t, ts.URL+"/v1/filters")
	if code != 200 || len(fl.Targets) != 1 {
		t.Fatalf("filters: %d %+v", code, fl)
	}
	tgt := fl.Targets[0]
	if len(tgt.Versions) != rep.Version {
		t.Fatalf("registry lists %d versions, want %d", len(tgt.Versions), rep.Version)
	}
	cand := tgt.Versions[rep.Version-1]
	if cand.Rules == "" || cand.RuleHash == "" || cand.Samples != rep.Samples || cand.Threshold == 0 {
		t.Fatalf("candidate provenance incomplete: %+v", cand)
	}

	// Operator override: activate the candidate (whatever the gate said),
	// and traffic must flip to it.
	code, act := post[FilterActionResponse](t, ts.URL+fmt.Sprintf("/v1/filters/%d/activate", rep.Version), FilterActionRequest{})
	if code != 200 || act.Version.Version != rep.Version {
		t.Fatalf("activate: %d %+v", code, act)
	}
	if _, resp := post[ScheduleResponse](t, ts.URL+"/v1/schedule",
		ScheduleRequest{ProgramInput: ProgramInput{Source: testSource}}); resp.FilterVersion != rep.Version {
		t.Fatalf("traffic still on v%d after activating v%d", resp.FilterVersion, rep.Version)
	}

	// Rollback restores the previous active version.
	code, rb := post[FilterActionResponse](t, ts.URL+"/v1/filters/rollback", FilterActionRequest{})
	if code != 200 {
		t.Fatalf("rollback: %d %+v", code, rb)
	}
	if _, v := s.Online().ActiveFilter("mpc7410"); v != rb.Version.Version {
		t.Fatalf("rollback reported v%d but v%d serves", rb.Version.Version, v)
	}

	// Online counters reach /metrics.
	if obs := scrape(t, ts.URL, "online_blocks_observed_total"); obs == 0 {
		t.Fatal("observed counter missing from /metrics")
	}
	if rt := scrape(t, ts.URL, "online_retrains_total"); rt != 1 {
		t.Fatalf("retrains counter = %d, want 1", rt)
	}
	if av := scrape(t, ts.URL, `online_active_filter_version{target="mpc7410"}`); av == 0 {
		t.Fatal("active version gauge missing from /metrics")
	}

	// Unknown registry versions and unmanaged targets are client faults.
	if code, _ := post[ErrorResponse](t, ts.URL+"/v1/filters/99/activate", FilterActionRequest{}); code != 400 {
		t.Fatalf("activating v99: status %d", code)
	}
	if code, _ := post[ErrorResponse](t, ts.URL+"/v1/retrain", RetrainRequest{Target: "wide4"}); code != 400 {
		t.Fatalf("retraining an unmanaged target: status %d", code)
	}
}

// The hot-swap acceptance test: requests keep succeeding, with no
// dropped or torn responses, while retraining, activation, and rollback
// continuously swap the serving filter underneath them. Run with -race.
func TestOnlineHotSwapSoak(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    4,
		QueueDepth: 256,
		Online:     true,
		OnlineOpts: online.Config{Targets: []string{"mpc7410"}, MinSamples: 1},
	})
	sources := []string{testSource, testSource2, testSource3}
	// Seed the reservoir so the first retrain has samples.
	for _, src := range sources {
		post[ScheduleResponse](t, ts.URL+"/v1/schedule", ScheduleRequest{ProgramInput: ProgramInput{Source: src}})
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Int64
		torn     atomic.Int64
		loadDone atomic.Bool
	)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				code, resp := post[ScheduleResponse](t, ts.URL+"/v1/schedule",
					ScheduleRequest{ProgramInput: ProgramInput{Source: sources[(c+i)%len(sources)]}})
				if code != 200 {
					failed.Add(1)
					continue
				}
				// A torn response would mix filters mid-swap: the version
				// must always be a live registry version and the label
				// must be present.
				if resp.FilterVersion < 1 || resp.Policy == "" || resp.Blocks == 0 {
					torn.Add(1)
				}
			}
		}(c)
	}

	// The swapper: retrain and flip versions as fast as possible until
	// the load finishes.
	swapper := make(chan struct{})
	go func() {
		defer close(swapper)
		flip := 1
		for !loadDone.Load() {
			post[RetrainResponse](t, ts.URL+"/v1/retrain", RetrainRequest{})
			flip++
			code, fl := get[FiltersResponse](t, ts.URL+"/v1/filters")
			if code != 200 || len(fl.Targets) == 0 {
				continue
			}
			n := 1 + flip%len(fl.Targets[0].Versions)
			post[FilterActionResponse](t, ts.URL+fmt.Sprintf("/v1/filters/%d/activate", n), FilterActionRequest{})
		}
	}()

	wg.Wait()
	loadDone.Store(true)
	<-swapper

	if f := failed.Load(); f != 0 {
		t.Fatalf("%d requests failed during hot-swap", f)
	}
	if tn := torn.Load(); tn != 0 {
		t.Fatalf("%d torn responses during hot-swap", tn)
	}
}
