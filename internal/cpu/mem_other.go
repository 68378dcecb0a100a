//go:build !unix

package cpu

// region owns a CPU's memory. Without syscall.Mmap it is a plain zeroed
// heap allocation, which the garbage collector reclaims with the CPU.
type region struct {
	mem []byte
}

func newRegion(size int) (*region, error) {
	return &region{mem: make([]byte, size)}, nil
}
