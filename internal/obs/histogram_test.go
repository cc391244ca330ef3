package obs

import (
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// bounds are inclusive: 10 → first bucket, 11 → second.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 5+10+11+100+500+5000 {
		t.Errorf("Sum = %d", s.Sum)
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "Latency.", []int64{10, 100}, L("endpoint", "compile"))
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	got := r.RenderString()
	for _, want := range []string{
		"# TYPE lat_ns histogram\n",
		"lat_ns_bucket{endpoint=\"compile\",le=\"10\"} 1\n",
		"lat_ns_bucket{endpoint=\"compile\",le=\"100\"} 2\n",
		"lat_ns_bucket{endpoint=\"compile\",le=\"+Inf\"} 3\n",
		"lat_ns_sum{endpoint=\"compile\"} 555\n",
		"lat_ns_count{endpoint=\"compile\"} 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q\n---\n%s", want, got)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "", []int64{100, 200, 400})
	// 100 observations spread evenly through (0,100].
	for i := 0; i < 100; i++ {
		h.Observe(int64(i + 1))
	}
	s := h.Snapshot()
	// All mass in the first bucket: p50 interpolates to ~50.
	if q := s.Quantile(0.50); q < 40 || q > 60 {
		t.Errorf("p50 = %d, want ~50", q)
	}
	if q := s.Quantile(1.0); q != 100 {
		t.Errorf("p100 = %d, want 100", q)
	}

	// Two buckets, even split: p90 lands in the second bucket.
	r2 := NewRegistry()
	h2 := r2.Histogram("two_ns", "", []int64{100, 200})
	for i := 0; i < 50; i++ {
		h2.Observe(50)  // first bucket
		h2.Observe(150) // second bucket
	}
	s2 := h2.Snapshot()
	// rank 90 → 40th of 50 in (100,200] → 100 + 0.8*100 = 180.
	if q := s2.Quantile(0.90); q < 170 || q > 190 {
		t.Errorf("p90 = %d, want ~180", q)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_ns", "", []int64{10, 20})
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", q)
	}
	// Everything in the +Inf bucket reports the last finite bound.
	h.Observe(1000)
	if q := h.Snapshot().Quantile(0.5); q != 20 {
		t.Errorf("+Inf-bucket quantile = %d, want 20", q)
	}
}

func TestDefaultBucketsAscending(t *testing.T) {
	for i := 1; i < len(defLatencyBuckets); i++ {
		if defLatencyBuckets[i] <= defLatencyBuckets[i-1] {
			t.Fatalf("DefLatencyBuckets not ascending at %d", i)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "ascending", func() { r.Histogram("bad_ns", "", []int64{10, 10}) })
}

func TestParseExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Reqs.", L("endpoint", "compile"), L("outcome", "ok"))
	c.Add(7)
	h := r.Histogram("lat_ns", "", []int64{100, 200}, L("endpoint", "compile"))
	for i := 0; i < 50; i++ {
		h.Observe(50)
		h.Observe(150)
	}

	e, err := ParseExposition(r.RenderString())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("requests_total", map[string]string{"endpoint": "compile", "outcome": "ok"}); !ok || v != 7 {
		t.Errorf("Value = %v/%v, want 7/true", v, ok)
	}
	if e.Types["lat_ns"] != "histogram" {
		t.Errorf("Types[lat_ns] = %q", e.Types["lat_ns"])
	}
	th, ok := e.Histogram("lat_ns", map[string]string{"endpoint": "compile"})
	if !ok {
		t.Fatal("Histogram() not found")
	}
	if th.Count != 100 || th.Sum != 50*50+150*50 {
		t.Errorf("reconstructed count/sum = %d/%d", th.Count, th.Sum)
	}
	// Parsed quantile must agree with the server-side snapshot.
	want := h.Snapshot().Quantile(0.9)
	if got := th.Quantile(0.9); got != want {
		t.Errorf("parsed p90 = %d, server p90 = %d", got, want)
	}
}

func TestParseExpositionErrors(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		"x{unterminated=\"v 1",
		"x{k=unquoted} 1",
		"x notanumber",
	} {
		if _, err := ParseExposition(bad); err == nil {
			t.Errorf("ParseExposition(%q) = nil error", bad)
		}
	}
}
