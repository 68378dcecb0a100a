package prog

import (
	"context"
	"testing"

	"twolevel/internal/trace"
)

// BenchmarkCaptureCold measures the whole cold-capture path for every
// (benchmark, data set) pair: program generation, assembly, CPU
// construction and a digestConds-conditional capture into a fresh
// cache. One op covers all pairs; trace-ev/s counts captured events.
func BenchmarkCaptureCold(b *testing.B) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		for _, bm := range All {
			for _, ds := range []DataSet{bm.Testing, bm.Training} {
				snap, _, err := trace.NewCaptureCache().CaptureWithStatus(context.Background(), "cold", digestConds, func() (trace.Source, error) {
					return bm.NewSource(ds)
				})
				if err != nil {
					b.Fatalf("%s/%s: %v", bm.Name, ds.Name, err)
				}
				events += snap.Len()
			}
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "trace-ev/s")
}

// BenchmarkBuild measures program generation and assembly: one op is a
// Build of every (benchmark, data set) pair.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bm := range All {
			for _, ds := range []DataSet{bm.Testing, bm.Training} {
				if _, err := bm.Build(ds); err != nil {
					b.Fatalf("%s/%s: %v", bm.Name, ds.Name, err)
				}
			}
		}
	}
}
