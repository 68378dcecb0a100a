// Package profile writes the Go runtime profiles behind the binaries'
// -cpuprofile and -memprofile flags.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU starts a CPU profile written to path and returns the function
// that stops it and closes the file. An empty path profiles nothing.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap collects garbage, then writes a heap profile to path. An
// empty path writes nothing.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
