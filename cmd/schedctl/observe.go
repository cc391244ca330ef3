package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"schedfilter/internal/obs"
	"schedfilter/internal/server"
)

// runMetrics renders a service's /metrics exposition as a readable
// report: per-endpoint outcome counts with latency percentiles, then
// the per-phase timing breakdown. -raw dumps the Prometheus text
// unformatted, the historical behavior scripts scrape.
func runMetrics(c *client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	raw := fs.Bool("raw", false, "dump the raw Prometheus text exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *raw {
		return c.getText("/metrics", os.Stdout)
	}
	var buf bytes.Buffer
	if err := c.getText("/metrics", &buf); err != nil {
		return err
	}
	exp, err := obs.ParseExposition(buf.String())
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}

	// The gateway and the backend expose the same shapes under their own
	// prefixes; report whichever this address serves.
	prefix := "schedserved"
	if len(exp.Family("schedgate_requests_total")) > 0 {
		prefix = "schedgate"
	}

	if up, ok := exp.Value(prefix+"_uptime_seconds", nil); ok {
		fmt.Printf("%s, up %s\n", prefix, (time.Duration(up) * time.Second).String())
	} else {
		fmt.Println(prefix)
	}
	if prefix == "schedgate" {
		healthy, _ := exp.Value("schedgate_members_healthy", nil)
		members, _ := exp.Value("schedgate_members", nil)
		fmt.Printf("members: %.0f/%.0f healthy\n", healthy, members)
	}

	// Endpoint table: outcome counters plus request-latency percentiles.
	endpoints := map[string]bool{}
	for _, s := range exp.Family(prefix + "_requests_total") {
		if ep := s.Labels["endpoint"]; ep != "" {
			endpoints[ep] = true
		}
	}
	names := make([]string, 0, len(endpoints))
	for ep := range endpoints {
		names = append(names, ep)
	}
	sort.Strings(names)
	fmt.Printf("\n%-10s %8s %8s %8s %8s %10s %10s %10s %10s\n",
		"endpoint", "ok", "clierr", "reject", "srverr", "p50", "p90", "p99", "max")
	for _, ep := range names {
		val := func(outcome string) string {
			v, ok := exp.Value(prefix+"_requests_total",
				map[string]string{"endpoint": ep, "outcome": outcome})
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.0f", v)
		}
		p50, p90, p99 := "-", "-", "-"
		if h, ok := exp.Histogram(prefix+"_request_latency_ns", map[string]string{"endpoint": ep}); ok && h.Count > 0 {
			p50, p90, p99 = fmtNs(h.Quantile(0.50)), fmtNs(h.Quantile(0.90)), fmtNs(h.Quantile(0.99))
		}
		max := "-"
		if v, ok := exp.Value(prefix+"_latency_ns_max", map[string]string{"endpoint": ep}); ok && v > 0 {
			max = fmtNs(int64(v))
		}
		fmt.Printf("%-10s %8s %8s %8s %8s %10s %10s %10s %10s\n",
			ep, val("ok"), val("client_error"), val("rejected"), val("server_error"),
			p50, p90, p99, max)
	}

	// Phase table: where traced request time goes, in pipeline order.
	header := false
	for _, ph := range obs.Phases {
		h, ok := exp.Histogram(prefix+"_phase_ns", map[string]string{"phase": ph})
		if !ok || h.Count == 0 {
			continue
		}
		if !header {
			fmt.Printf("\n%-14s %10s %10s %10s %10s\n", "phase", "count", "p50", "p90", "p99")
			header = true
		}
		fmt.Printf("%-14s %10d %10s %10s %10s\n",
			ph, h.Count, fmtNs(h.Quantile(0.50)), fmtNs(h.Quantile(0.90)), fmtNs(h.Quantile(0.99)))
	}
	if !header {
		fmt.Printf("\nno traced phases recorded yet\n")
	}
	return nil
}

// runTrace sends one traced request and prints its span breakdown: the
// trace ID (minted by the far end unless -id pins one), the answering
// node, and each recorded phase's share of the measured total. Against
// a schedgate the breakdown includes the gateway's route span.
func runTrace(c *client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	op := fs.String("op", "schedule", "endpoint to trace: compile, schedule, predict, or execute")
	id := fs.String("id", "", "trace ID to present (default: minted by the service)")
	src, workload, policySpec, target := inputFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *op {
	case "compile", "schedule", "predict", "execute":
	default:
		return fmt.Errorf("bad -op %q (want compile, schedule, predict, or execute)", *op)
	}
	if *id != "" && !obs.ValidTraceID(*id) {
		return fmt.Errorf("bad -id %q (1-64 chars of [A-Za-z0-9_-])", *id)
	}
	in, err := makeInput(*src, *workload, *target)
	if err != nil {
		return err
	}
	in.Policy = *policySpec
	var req any
	switch *op {
	case "compile":
		req = server.CompileRequest{ProgramInput: in}
	case "schedule":
		req = server.ScheduleRequest{ProgramInput: in}
	case "predict":
		req = server.PredictRequest{ProgramInput: in}
	case "execute":
		req = server.ExecuteRequest{ProgramInput: in}
	}
	if *id != "" {
		c.SetHeader(obs.TraceHeader, *id)
	}
	r, err := c.post("/v1/"+*op, req)
	if err != nil {
		return err
	}
	var body struct {
		Trace *obs.TraceInfo `json:"trace"`
	}
	if err := json.Unmarshal(r.Body, &body); err != nil {
		return fmt.Errorf("/v1/%s: %w", *op, err)
	}
	if body.Trace == nil {
		return fmt.Errorf("/v1/%s: response carries no trace", *op)
	}
	tr := body.Trace
	fmt.Printf("trace %s  endpoint %s", tr.ID, *op)
	if node := r.Header.Get("X-Sched-Node"); node != "" {
		fmt.Printf("  node %s", node)
	}
	fmt.Println()
	var attributed int64
	for _, sp := range tr.Spans {
		attributed += sp.Ns
		fmt.Printf("  %-14s %12s  %5.1f%%\n", sp.Phase, fmtNs(sp.Ns), pct(sp.Ns, tr.TotalNs))
	}
	if rest := tr.TotalNs - attributed; rest > 0 {
		fmt.Printf("  %-14s %12s  %5.1f%%\n", "(other)", fmtNs(rest), pct(rest, tr.TotalNs))
	}
	fmt.Printf("  %-14s %12s\n", "total", fmtNs(tr.TotalNs))
	return nil
}

func pct(part, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// fmtNs renders a nanosecond figure as a duration with magnitude-aware
// rounding.
func fmtNs(ns int64) string {
	if ns <= 0 {
		return "0"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		d = d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		d = d.Round(10 * time.Microsecond)
	case d >= time.Microsecond:
		d = d.Round(10 * time.Nanosecond)
	}
	return d.String()
}
