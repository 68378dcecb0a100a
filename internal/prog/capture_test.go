package prog

import (
	"context"
	"runtime"
	"testing"

	"twolevel/internal/trace"
)

// TestCaptureColumnsBounded holds every benchmark's cold capture to the
// packed columns' growth bounds at the digest budget: spare capacity at
// most a quarter of the live bytes, and at most three times the final
// footprint allocated while capturing. The source is opened before the
// measurement, so the allocations counted are the capture's own.
func TestCaptureColumnsBounded(t *testing.T) {
	for _, bm := range All {
		for _, ds := range []DataSet{bm.Testing, bm.Training} {
			src, err := bm.NewSource(ds)
			if err != nil {
				t.Fatal(err)
			}
			cache := trace.NewCaptureCache()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			snap, err := cache.Capture(context.Background(), "cold", digestConds, func() (trace.Source, error) { return src, nil })
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.Name, ds.Name, err)
			}
			runtime.ReadMemStats(&after)
			bytes, live := cache.Stats().Bytes, int64(snap.Len())*13
			if bytes-live > live/4 {
				t.Errorf("%s/%s: %d column bytes for %d live", bm.Name, ds.Name, bytes, live)
			}
			if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > 3*bytes {
				t.Errorf("%s/%s: capture allocated %d bytes, over 3x the final %d", bm.Name, ds.Name, alloc, bytes)
			}
		}
	}
}
