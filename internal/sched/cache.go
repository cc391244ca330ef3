package sched

import (
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
)

// ScheduleBlock list-schedules a block in place on the caller's scratch:
// the block's instruction slice is replaced with the scheduled order. With
// a non-nil cache it consults the content-addressed cache first — if a
// block with identical instruction content has been scheduled on this
// model before, the cached order is replayed instead of re-running the
// scheduler, and a miss inserts its result for the next identical block.
// The boolean reports whether the result came from the cache (always
// false for a nil cache); a replayed Result carries the costs and Changed
// but a nil Order.
func ScheduleBlock(m *machine.Model, b *ir.Block, c *codecache.Cache, s *Scratch) (Result, bool) {
	if c == nil {
		return scheduleInPlace(m, b, s), false
	}
	var lookStart time.Time
	if s.timing {
		lookStart = time.Now()
	}
	key := codecache.BlockKey(m.Name, b.Instrs)
	e, ok := c.Lookup(key, len(b.Instrs))
	if s.timing {
		s.phases.CacheLookupNs += time.Since(lookStart).Nanoseconds()
	}
	if ok {
		if e.Changed {
			out := make([]ir.Instr, len(e.Order))
			for pos, idx := range e.Order {
				out[pos] = b.Instrs[idx]
			}
			b.Instrs = out
		}
		return Result{CostBefore: e.CostBefore, CostAfter: e.CostAfter, Changed: e.Changed}, true
	}
	res := scheduleInPlace(m, b, s)
	entry := codecache.Entry{
		NInstrs:    len(b.Instrs),
		CostBefore: res.CostBefore,
		CostAfter:  res.CostAfter,
		Changed:    res.Changed,
	}
	if res.Changed {
		entry.Order = make([]int32, len(res.Order))
		for i, v := range res.Order {
			entry.Order[i] = int32(v)
		}
	}
	c.Insert(key, entry)
	return res, false
}

// scheduleInPlace schedules b's instructions and, when the order changed,
// replaces them with the scheduled order.
func scheduleInPlace(m *machine.Model, b *ir.Block, s *Scratch) Result {
	res := ScheduleInstrsScratch(m, b.Instrs, s)
	if res.Changed {
		b.Instrs = res.Apply(b.Instrs)
	}
	return res
}
