// Package serverbench benchmarks the compile service end to end: it
// boots internal/server behind an in-process HTTP listener, fires one
// cold schedule request per workload followed by a concurrent warm
// phase of identical requests, and reports request latency, scheduling
// cost, and scheduled-block cache effectiveness — with the server-side
// /metrics counters cross-checked against the per-response accounting.
//
// The result is the BENCH_server.json artifact (cmd/schedexp -exp
// server -json), the server-side counterpart of BENCH_adaptive.json.
package serverbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schedfilter/internal/experiments"
	"schedfilter/internal/server"
	"schedfilter/internal/workloads"
)

// Config parameterizes the benchmark.
type Config struct {
	// Workloads names the bundled benchmarks to drive; empty selects all.
	Workloads []string
	// Requests is the number of warm (repeated, identical) requests per
	// workload after the cold one; 0 selects 16.
	Requests int
	// Concurrency is the number of concurrent clients in the warm phase;
	// 0 selects 4.
	Concurrency int
	// Filter is the per-request filter selector sent to the server
	// ("LS", "NS", "size:N", "default"); empty selects LS so every block
	// goes through the scheduler and the cache carries the full load.
	Filter string
	// Server configures the service under test (pool size, cache bound,
	// default filter, ...). The zero value selects the server defaults.
	Server server.Config
}

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		for _, w := range workloads.All() {
			c.Workloads = append(c.Workloads, w.Name)
		}
	}
	if c.Requests <= 0 {
		c.Requests = 16
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Filter == "" {
		c.Filter = "LS"
	}
	return c
}

// Row is one workload's numbers.
type Row struct {
	Workload string `json:"workload"`

	// Program shape and filter decisions, from the cold response.
	Blocks    int `json:"blocks"`
	Scheduled int `json:"scheduled"`

	// Cold request: the cache is empty, every approved block runs the
	// list scheduler.
	ColdNs      int64 `json:"cold_ns"`
	ColdSchedNs int64 `json:"cold_sched_ns"`
	ColdMisses  int   `json:"cold_misses"`

	// Warm phase: Requests identical requests at Concurrency clients.
	WarmReqs       int   `json:"warm_reqs"`
	WarmAvgNs      int64 `json:"warm_avg_ns"`
	WarmMaxNs      int64 `json:"warm_max_ns"`
	WarmSchedAvgNs int64 `json:"warm_sched_avg_ns"`
	WarmHits       int64 `json:"warm_hits"`
	WarmMisses     int64 `json:"warm_misses"`

	// SchedulerRuns is the server-side scheduler_runs_total delta over
	// the warm phase, scraped from /metrics: on a repeated workload it
	// should be zero (every block replayed from the cache).
	SchedulerRuns int64 `json:"scheduler_runs_warm"`
}

// HitRate is the warm-phase cache hit rate.
func (r Row) HitRate() float64 {
	if r.WarmHits+r.WarmMisses == 0 {
		return 0
	}
	return float64(r.WarmHits) / float64(r.WarmHits+r.WarmMisses)
}

// Result holds the whole benchmark.
type Result struct {
	Filter      string `json:"filter"`
	Requests    int    `json:"requests_per_workload"`
	Concurrency int    `json:"concurrency"`
	Rows        []Row  `json:"rows"`

	// Aggregates over all workloads' warm phases.
	WarmHits      int64   `json:"warm_hits"`
	WarmMisses    int64   `json:"warm_misses"`
	WarmHitRate   float64 `json:"warm_hit_rate"`
	SchedulerRuns int64   `json:"scheduler_runs_warm"`
	// SchedSpeedup is Σ cold scheduling time / mean warm scheduling time,
	// per request: what the cache buys on a repeated workload.
	SchedSpeedup float64 `json:"sched_speedup"`
}

// Run executes the benchmark against a fresh in-process server.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	srv := server.New(cfg.Server)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := &benchClient{base: ts.URL, hc: ts.Client()}

	res := &Result{Filter: cfg.Filter, Requests: cfg.Requests, Concurrency: cfg.Concurrency}
	var coldSched, warmSched, warmN int64
	for _, name := range cfg.Workloads {
		row, err := c.benchWorkload(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Rows = append(res.Rows, row)
		res.WarmHits += row.WarmHits
		res.WarmMisses += row.WarmMisses
		res.SchedulerRuns += row.SchedulerRuns
		coldSched += row.ColdSchedNs
		warmSched += row.WarmSchedAvgNs * int64(row.WarmReqs)
		warmN += int64(row.WarmReqs)
	}
	if res.WarmHits+res.WarmMisses > 0 {
		res.WarmHitRate = float64(res.WarmHits) / float64(res.WarmHits+res.WarmMisses)
	}
	if warmN > 0 && warmSched > 0 {
		res.SchedSpeedup = float64(coldSched) / (float64(warmSched) / float64(warmN)) / float64(len(res.Rows))
	}
	return res, nil
}

func (c *benchClient) benchWorkload(name string, cfg Config) (Row, error) {
	row := Row{Workload: name}
	req := server.ScheduleRequest{
		ProgramInput: server.ProgramInput{Workload: name, Policy: cfg.Filter},
	}

	t0 := time.Now()
	cold, err := c.schedule(req)
	if err != nil {
		return row, err
	}
	row.ColdNs = time.Since(t0).Nanoseconds()
	row.Blocks = cold.Blocks
	row.Scheduled = cold.Scheduled
	row.ColdSchedNs = cold.SchedNs
	row.ColdMisses = cold.CacheMisses

	before, err := c.scrape()
	if err != nil {
		return row, err
	}

	var (
		hits, misses, schedNs atomic.Int64
		latSum, latMax        atomic.Int64
		next                  atomic.Int64
		firstErr              atomic.Value
		wg                    sync.WaitGroup
	)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(cfg.Requests) {
				r0 := time.Now()
				resp, err := c.schedule(req)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				ns := time.Since(r0).Nanoseconds()
				latSum.Add(ns)
				for {
					old := latMax.Load()
					if ns <= old || latMax.CompareAndSwap(old, ns) {
						break
					}
				}
				hits.Add(int64(resp.CacheHits))
				misses.Add(int64(resp.CacheMisses))
				schedNs.Add(resp.SchedNs)
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return row, err
	}

	after, err := c.scrape()
	if err != nil {
		return row, err
	}
	row.WarmReqs = cfg.Requests
	row.WarmAvgNs = latSum.Load() / int64(cfg.Requests)
	row.WarmMaxNs = latMax.Load()
	row.WarmSchedAvgNs = schedNs.Load() / int64(cfg.Requests)
	row.WarmHits = hits.Load()
	row.WarmMisses = misses.Load()
	row.SchedulerRuns = after - before
	return row, nil
}

type benchClient struct {
	base string
	hc   *http.Client
}

func (c *benchClient) schedule(req server.ScheduleRequest) (*server.ScheduleResponse, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+"/v1/schedule", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("schedule: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("schedule: HTTP %d", resp.StatusCode)
	}
	var out server.ScheduleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

var schedulerRunsRE = regexp.MustCompile(`(?m)^schedserved_scheduler_runs_total (\d+)$`)

// scrape reads the server-side scheduler-run counter from /metrics — the
// independent witness that warm requests skip the list scheduler.
func (c *benchClient) scrape() (int64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	m := schedulerRunsRE.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("metrics: schedserved_scheduler_runs_total not found")
	}
	return strconv.ParseInt(string(m[1]), 10, 64)
}

// Render prints the benchmark as a table.
func (r *Result) Render() string {
	var b strings.Builder
	title := fmt.Sprintf("Compile server: cold vs warm scheduling (filter %s, %d reqs x %d clients per workload)",
		r.Filter, r.Requests, r.Concurrency)
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(&b, "%-11s %7s %6s %10s %10s %10s %10s %8s %6s\n",
		"workload", "blocks", "sched", "cold", "warm-avg", "cold-schd", "warm-schd", "hit-rate", "runs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %7d %6d %10v %10v %10v %10v %7.1f%% %6d\n",
			row.Workload, row.Blocks, row.Scheduled,
			time.Duration(row.ColdNs).Round(time.Microsecond),
			time.Duration(row.WarmAvgNs).Round(time.Microsecond),
			time.Duration(row.ColdSchedNs).Round(time.Microsecond),
			time.Duration(row.WarmSchedAvgNs).Round(time.Microsecond),
			100*row.HitRate(), row.SchedulerRuns)
	}
	fmt.Fprintf(&b, "\nWarm phase: %d hits / %d misses (hit rate %.1f%%), %d scheduler runs,\n",
		r.WarmHits, r.WarmMisses, 100*r.WarmHitRate, r.SchedulerRuns)
	fmt.Fprintf(&b, "mean per-request scheduling %.0fx cheaper than the cold pass.\n", r.SchedSpeedup)
	return b.String()
}

// WriteJSON writes the benchmark as machine-readable JSON (the
// BENCH_server.json artifact) through the shared experiments code path.
func (r *Result) WriteJSON(path string) error { return experiments.WriteJSON(path, r) }
