package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// defLatencyBuckets is the default nanosecond bucket layout: roughly
// exponential from 1µs to 10s, wide enough for both the scheduler's
// per-phase timings (sub-millisecond) and full gateway round trips.
var defLatencyBuckets = []int64{
	1_000,          // 1µs
	2_500,          // 2.5µs
	5_000,          // 5µs
	10_000,         // 10µs
	25_000,         // 25µs
	50_000,         // 50µs
	100_000,        // 100µs
	250_000,        // 250µs
	500_000,        // 500µs
	1_000_000,      // 1ms
	2_500_000,      // 2.5ms
	5_000_000,      // 5ms
	10_000_000,     // 10ms
	25_000_000,     // 25ms
	50_000_000,     // 50ms
	100_000_000,    // 100ms
	250_000_000,    // 250ms
	500_000_000,    // 500ms
	1_000_000_000,  // 1s
	2_500_000_000,  // 2.5s
	10_000_000_000, // 10s
}

// Histogram is a fixed-bucket latency histogram. bounds are inclusive
// upper bounds in ascending order; an implicit +Inf bucket catches the
// tail. Observe is atomic and allocation-free: a linear scan over a
// couple dozen int64 bounds beats binary search at this size and never
// touches the heap.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value (typically nanoseconds).
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram, from which
// quantiles are estimated.
type HistSnapshot struct {
	Bounds []int64 // upper bounds, ascending (no +Inf entry)
	Counts []int64 // per-bucket counts, len(Bounds)+1 (last is +Inf)
	Sum    int64
	Count  int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear
// interpolation within the bucket containing the target rank. Values in
// the +Inf bucket report the last finite bound (the best available
// estimate). Returns 0 for an empty histogram.
func (s HistSnapshot) Quantile(p float64) int64 {
	return quantileFromBuckets(s.Bounds, s.Counts, s.Count, p)
}

// quantileFromBuckets is the shared interpolation core, also used by the
// client-side exposition parser's reconstructed histograms.
func quantileFromBuckets(bounds []int64, counts []int64, total int64, p float64) int64 {
	if total <= 0 {
		return 0
	}
	if p <= 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: no finite upper bound to interpolate
			// against; report the largest finite bound.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// render emits the standard _bucket{le=...}/_sum/_count exposition
// lines. le values are rendered as integers (the bounds are int64
// nanoseconds) plus the final +Inf bucket.
func (h *Histogram) render(w io.Writer, name string, labels []Label) {
	base := formatLabels(labels)
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, fmt.Sprintf("%d", bound)), cum)
		_ = i
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, base, h.sum.Load())
	fmt.Fprintf(w, "%s_count%s %d\n", name, base, h.count.Load())
}

// bucketLabels appends the le label to the series' own labels.
func bucketLabels(labels []Label, le string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: "le", Value: le})
	return formatLabels(all)
}
