package codecache

import "schedfilter/internal/obs"

// RegisterMetrics registers the unlabelled aggregate codecache_* series
// over the given caches (summed at render time) plus the singleflight
// counters. These are the historical names the smoke tests scrape; they
// predate multi-target serving, hence the aggregation.
func RegisterMetrics(reg *obs.Registry, flight *Flight, caches ...*Cache) {
	sum := func(pick func(Stats) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, c := range caches {
				total += pick(c.Stats())
			}
			return total
		}
	}
	const help = "Content-addressed scheduled-block caches (all targets; per-target below)."
	reg.CounterFunc("codecache_hits_total", help, sum(func(s Stats) int64 { return s.Hits }))
	reg.CounterFunc("codecache_misses_total", "", sum(func(s Stats) int64 { return s.Misses }))
	reg.CounterFunc("codecache_inserts_total", "", sum(func(s Stats) int64 { return s.Inserts }))
	reg.CounterFunc("codecache_evictions_total", "", sum(func(s Stats) int64 { return s.Evictions }))
	reg.CounterFunc("codecache_collisions_total", "", sum(func(s Stats) int64 { return s.Collisions }))
	reg.GaugeFunc("codecache_entries", "", sum(func(s Stats) int64 { return int64(s.Entries) }))
	reg.GaugeFunc("codecache_weight_words", "", sum(func(s Stats) int64 { return int64(s.Weight) }))
	reg.CounterFunc("codecache_coalesced_total", "Requests that shared a concurrent identical scheduling pass.",
		func() int64 { return flight.Stats().Coalesced })
	reg.CounterFunc("codecache_flight_leaders_total", "",
		func() int64 { return flight.Stats().Leaders })
}

// RegisterTargetMetrics registers one cache's per-target breakout
// series (codecache_target_*), labelled with the target name.
func (c *Cache) RegisterTargetMetrics(reg *obs.Registry, target string) {
	l := obs.L("target", target)
	reg.CounterFunc("codecache_target_hits_total", "Per-target scheduled-block cache traffic.",
		func() int64 { return c.Stats().Hits }, l)
	reg.CounterFunc("codecache_target_misses_total", "",
		func() int64 { return c.Stats().Misses }, l)
	reg.GaugeFunc("codecache_target_entries", "",
		func() int64 { return int64(c.Stats().Entries) }, l)
}
