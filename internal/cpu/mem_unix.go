//go:build unix

package cpu

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
)

// mapped counts the memory mappings currently held by CPUs; tests read
// it to check that dropped CPUs give their memory back.
var mapped atomic.Int64

// region owns a CPU's memory: an anonymous private mapping, so the
// kernel supplies zero pages lazily and only the pages a program touches
// become resident. Only the CPU points at its region; once the CPU is
// unreachable the finalizer unmaps the memory. The mapping itself is
// invisible to the garbage collector, so code that reaches the memory
// must keep the CPU reachable until its last access. StoreWord, Reset and
// restorePage use the CPU again after their accesses; LoadWord and the
// callers of run hold it with runtime.KeepAlive.
type region struct {
	mem []byte
}

func newRegion(size int) (*region, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("cpu: mapping %d bytes of memory: %w", size, err)
	}
	mapped.Add(1)
	r := &region{mem: mem}
	runtime.SetFinalizer(r, (*region).unmap)
	return r, nil
}

// unmap releases the mapping. Munmap fails only for a slice Mmap did not
// return; the count then stays up, which the release test catches.
func (r *region) unmap() {
	if syscall.Munmap(r.mem) == nil {
		mapped.Add(-1)
	}
}
