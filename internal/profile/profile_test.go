package profile

import (
	"os"
	"path/filepath"
	"testing"
)

// nonEmpty fails t unless path names a non-empty file.
func nonEmpty(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatalf("%s is empty", filepath.Base(path))
	}
}

// TestProfilesWritten: a CPU profile and a heap profile are written
// non-empty, a second StartCPU while the first profile runs is refused,
// and empty paths write nothing.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPU(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if stop2, err := StartCPU(filepath.Join(dir, "second.pprof")); err == nil {
		stop2()
		t.Error("a second concurrent StartCPU succeeded")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, cpu)

	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeap(heap); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, heap)

	stop, err = StartCPU("")
	if err != nil || stop() != nil || WriteHeap("") != nil {
		t.Errorf("empty paths: StartCPU error %v", err)
	}
}
