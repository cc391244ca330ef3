//go:build unix

package sim

import (
	"syscall"
	"unsafe"
)

// mapMem returns n zeroed words mapped outside the Go heap. The kernel
// supplies zero pages as they are first touched, so a run's resident
// memory is the pages it writes, whatever state the heap is in; a slice
// from make may instead land on heap pages the runtime must clear first,
// which makes the whole region resident on some runs and not on others.
func mapMem(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("sim: mapping run memory: " + err.Error())
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// unmapMem returns memory from mapMem to the kernel.
func unmapMem(m []uint64) {
	syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&m[0])), len(m)*8))
}
