//go:build unix

package cpu

import (
	"runtime"
	"testing"
	"time"

	"twolevel/internal/asm"
)

// TestDroppedCPUsUnmapTheirMemory constructs and drops 1,000 CPUs, 4 GB
// of address space, each with two resident pages. Their finalizers must
// give the mappings back once the collector has run.
func TestDroppedCPUsUnmapTheirMemory(t *testing.T) {
	prog := asm.MustAssemble(pageWalker)
	before := mapped.Load()
	for i := 0; i < 1000; i++ {
		c, err := New(prog, 0)
		if err != nil {
			t.Fatalf("CPU %d: %v", i, err)
		}
		if err := c.StoreWord(DefaultMemSize/2, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Finalizers run on their own goroutine after the cycle that finds
	// a region unreachable; give them a few cycles to catch up.
	const bound = 8
	for i := 0; i < 100 && mapped.Load()-before > bound; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if live := mapped.Load() - before; live > bound {
		t.Fatalf("%d of 1000 dropped CPUs still hold their memory mapping", live)
	}
}
