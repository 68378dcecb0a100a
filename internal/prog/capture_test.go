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
// footprint allocated while capturing. Live is taken at its floor, the 4
// bytes per event of the coded columns, so the site table counts as
// spare. The source is opened before the measurement, so the allocations
// counted are the capture's own.
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
			snap, _, err := cache.CaptureWithStatus(context.Background(), "cold", digestConds, func() (trace.Source, error) { return src, nil })
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.Name, ds.Name, err)
			}
			runtime.ReadMemStats(&after)
			bytes, live := cache.Stats().Bytes, int64(snap.Len())*4
			if bytes-live > live/4 {
				t.Errorf("%s/%s: %d column bytes for %d live", bm.Name, ds.Name, bytes, live)
			}
			if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > 3*bytes {
				t.Errorf("%s/%s: capture allocated %d bytes, over 3x the final %d", bm.Name, ds.Name, alloc, bytes)
			}
		}
	}
}

// TestCaptureFootprint guards the capture store's width: the nine
// testing data sets captured at 100,000 conditional branches each take
// at most 4.5 bytes per event, site tables and spare capacity included.
func TestCaptureFootprint(t *testing.T) {
	cache := trace.NewCaptureCache()
	for _, bm := range All {
		if _, _, err := cache.CaptureWithStatus(context.Background(), bm.Name, 100_000, func() (trace.Source, error) { return bm.NewSource(bm.Testing) }); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
	}
	st := cache.Stats()
	if st.Entries != len(All) {
		t.Fatalf("%d captures, want %d", st.Entries, len(All))
	}
	if perEvent := float64(st.Bytes) / float64(st.Events); perEvent > 4.5 {
		t.Errorf("%d events take %d bytes, %.3f per event, over 4.5", st.Events, st.Bytes, perEvent)
	}
}
