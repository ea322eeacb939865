package main

import (
	"syscall"
	"unsafe"
)

// offHeap allocates a zeroed array of n values of a pointer-free type T
// in anonymous memory outside the Go heap, and returns it with its
// release function. The generator's operation records and the trace's
// spans live there so that the benchmark's own bookkeeping, which grows
// with every operation, neither counts toward the collector's heap goal
// nor changes how often the program under test collects garbage.
func offHeap[T any](n int) ([]T, func(), error) {
	size := n * int(unsafe.Sizeof(*new(T)))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), func() { _ = syscall.Munmap(mem) }, nil
}
