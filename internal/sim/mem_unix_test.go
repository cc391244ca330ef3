//go:build unix

package sim

import (
	"runtime"
	"testing"
)

// Run memory lives outside the Go heap: taking a fresh one does not grow
// the heap, it reads zero, and memories beyond the free list's capacity
// are unmapped on release without disturbing the ones kept.
func TestRunMemoryOffHeap(t *testing.T) {
	drain := func() {
		for {
			select {
			case m := <-freeMem:
				unmapMem(m)
			default:
				return
			}
		}
	}
	drain()
	defer drain()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	states := make([]*state, cap(freeMem)+1)
	for i := range states {
		states[i] = runState(defaultMemWords)
	}
	runtime.ReadMemStats(&after)
	if grown := after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc); grown >= defaultMemWords*8/2 {
		t.Errorf("%d fresh run memories grew the heap by %d bytes", len(states), grown)
	}

	for i, s := range states {
		last := len(s.Mem) - 1
		if s.Mem[0] != 0 || s.Mem[last] != 0 {
			t.Fatalf("state %d: fresh memory not zero", i)
		}
		s.Mem[0], s.Mem[last] = 1, 1
		s.heapEnd, s.stackStart = 1, int64(last)
	}
	for _, s := range states {
		s.release()
	}
	if n := len(freeMem); n != cap(freeMem) {
		t.Fatalf("free list holds %d memories, want %d", n, cap(freeMem))
	}
	for range cap(freeMem) {
		s := runState(defaultMemWords)
		if last := len(s.Mem) - 1; s.Mem[0] != 0 || s.Mem[last] != 0 {
			t.Errorf("reused memory not cleared")
		}
		s.release()
	}
}
