//go:build !unix

package sim

// mapMem returns n zeroed words; without mmap they come from the heap.
func mapMem(n int) []uint64 { return make([]uint64, n) }

// unmapMem leaves heap memory to the garbage collector.
func unmapMem([]uint64) {}
