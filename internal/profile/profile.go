// Package profile writes the Go runtime profiles behind the binaries'
// -cpuprofile and -memprofile flags.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU starts a CPU profile written to path and returns the function
// that stops it and closes the file, returning the close error: the
// profile's last write can fail there. An empty path profiles nothing.
func StartCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
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
