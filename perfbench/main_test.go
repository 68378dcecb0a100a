package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"twolevel/internal/prog"
	"twolevel/internal/rng"
	"twolevel/internal/server"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// Every sampled spec parses, round-trips, builds (with training where it
// needs it) and lands on the side of the kernel its shape promises.
func TestSpecSamplerOutputsParse(t *testing.T) {
	shapes := append(append([]string(nil), kernelShapes...), shapeDeclined)
	for seed := uint64(0); seed < 40; seed++ {
		r := rng.New(seed)
		for _, shape := range shapes {
			raw := sampleSpec(r, shape)
			sp, err := spec.Parse(raw)
			if err != nil {
				t.Fatalf("%s spec %q does not parse: %v", shape, raw, err)
			}
			if sp.String() != raw {
				t.Errorf("%q is not canonical (%q)", raw, sp.String())
			}
			if sp.NeedsTraining() {
				if shape != shapeDeclined {
					t.Errorf("%s spec %q needs training", shape, raw)
				}
				continue
			}
			p, err := spec.Build(sp, nil)
			if err != nil {
				t.Fatalf("%q does not build: %v", raw, err)
			}
			if got, want := fastpath.Supported(p), shape != shapeDeclined; got != want {
				t.Errorf("%s spec %q: kernel support %v, want %v", shape, raw, got, want)
			}
		}
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestInputsDeterministic(t *testing.T) {
	a, err := sweepInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sweepInputs(7)
	c, _ := sweepInputs(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep-warm inputs differ for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("sweep-warm inputs equal for two seeds")
	}

	r1, err := serveInputs(7, 2*time.Second, probeRate)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := serveInputs(7, 2*time.Second, probeRate)
	r3, _ := serveInputs(8, 2*time.Second, probeRate)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("serve request lists differ for one seed")
	}
	if reflect.DeepEqual(r1, r3) {
		t.Error("serve request lists equal for two seeds")
	}
	kinds := map[string]int{}
	for i, rq := range r1 {
		kinds[rq.Kind]++
		if i > 0 && rq.Due < r1[i-1].Due {
			t.Fatalf("request %d due before its predecessor", i)
		}
		if rq.Kind == kindUpload {
			snap, err := packUpload(rq.Upload)
			if err != nil || snap.Len() < 4000 || snap.Conds() == 0 {
				t.Fatalf("upload %d: %d events, %d conds, %v", i, snap.Len(), snap.Conds(), err)
			}
		}
	}
	for _, k := range []string{kindGrid, kindStream, kindUpload} {
		if kinds[k] == 0 {
			t.Errorf("no %s requests in %d", k, len(r1))
		}
	}
}

// Every cell a sweep-warm grid can draw has a golden outcome.
func TestGoldenCoversPool(t *testing.T) {
	var g sweepGolden
	if err := loadGolden("sweep-warm.json", &g); err != nil {
		t.Fatal(err)
	}
	for _, b := range prog.All {
		for _, ps := range specPool() {
			if _, ok := g.Cells[cellKey(b.Name, ps.Spec)]; !ok {
				t.Errorf("no golden outcome for %s on %s", ps.Spec, b.Name)
			}
		}
	}
	var sg suiteGolden
	if err := loadGolden("suite-cold.json", &sg); err != nil {
		t.Fatal(err)
	}
	if len(sg.Reports) == 0 {
		t.Error("no suite report digests")
	}
}

// A corrupted golden entry turns a correct result into a failed
// operation: ok_ratio falls instead of the run passing.
func TestCorruptDigestRaisesFailures(t *testing.T) {
	in, err := sweepInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	// One cell from each of three shapes, so no two share a spec.
	in.cells = []sweepCell{in.cells[0], in.cells[sweepPerShape], in.cells[2*sweepPerShape]}
	s := &sweepWarm{in: in, cache: trace.NewCaptureCache()}
	if err := loadGolden("sweep-warm.json", &s.golden); err != nil {
		t.Fatal(err)
	}
	clean := newResult()
	if _, _, err := s.batch(0, nil, clean); err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 || clean.okRatio() != 1 {
		t.Fatalf("clean golden: %d of %d failed: %v", clean.failed, clean.attempted, clean.notes)
	}
	key := cellKey(prog.All[0].Name, in.cells[1].raw)
	o := s.golden.Cells[key]
	o.Correct++
	s.golden.Cells[key] = o
	bad := newResult()
	if _, ok, err := s.batch(0, nil, bad); err != nil || ok {
		t.Fatalf("batch with a corrupted golden entry: ok=%v err=%v", ok, err)
	}
	if bad.failed != 1 || bad.okRatio() >= clean.okRatio() {
		t.Errorf("corrupted sweep golden: %d of %d failed, ok_ratio %v", bad.failed, bad.attempted, bad.okRatio())
	}

	suite, err := setupSuiteCold()
	if err != nil {
		t.Fatal(err)
	}
	suite.ids = []string{"table3"}
	suite.golden.Reports["table3"] = "0000"
	sr := newResult()
	if _, err := suite.pass(1, nil, sr); err != nil {
		t.Fatal(err)
	}
	if sr.failed != 1 || sr.okRatio() != 0 {
		t.Errorf("corrupted suite digest: %d of %d failed", sr.failed, sr.attempted)
	}
}

// Jobs on several workers check their cells concurrently: every check
// is counted once, and none is lost to a race (run with -race).
func TestConcurrentPassCountsEveryCheck(t *testing.T) {
	in, err := sweepInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	in.cells = []sweepCell{in.cells[0], in.cells[sweepPerShape], in.cells[2*sweepPerShape]}
	s := &sweepWarm{in: in, cache: trace.NewCaptureCache()}
	if err := loadGolden("sweep-warm.json", &s.golden); err != nil {
		t.Fatal(err)
	}
	r := newResult()
	p, err := s.pass(4, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(prog.All) * len(in.cells); r.attempted != want || r.failed != 0 || len(p.lat) != len(prog.All) {
		t.Errorf("%d of %d checks failed over %d jobs; want 0 of %d over %d: %v",
			r.failed, r.attempted, len(p.lat), want, len(prog.All), r.notes)
	}

	// Checks that overlap in time, as two batches finishing together do.
	r = newResult()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.check(i%2 == 0, "cell")
			}
		}()
	}
	wg.Wait()
	if r.attempted != 4000 || r.failed != 2000 || len(r.notes) != 20 {
		t.Errorf("concurrent checks: %d attempted, %d failed, %d notes; want 4000, 2000, 20", r.attempted, r.failed, len(r.notes))
	}
}

// A serve probe response that disagrees with the local run in any cell
// count or in its checksum fails the check.
func TestCheckGridDetectsMismatch(t *testing.T) {
	w := want{checksum: "00000000000000aa", cells: []cellWant{{spec: "BTFN", predictions: 10, mispredictions: 3, events: 20}}}
	good := server.GridResponse{Checksum: w.checksum, Completed: 1,
		Cells: []server.Cell{{Spec: "BTFN", Predictions: 10, Mispredictions: 3, Events: 20}}}
	if msg := checkGrid(good, w); msg != "" {
		t.Fatalf("matching response rejected: %s", msg)
	}
	wrongCount := good
	wrongCount.Cells = []server.Cell{{Spec: "BTFN", Predictions: 10, Mispredictions: 2, Events: 20}}
	wrongSum := good
	wrongSum.Checksum = "00000000000000ab"
	for _, bad := range []server.GridResponse{wrongCount, wrongSum} {
		if checkGrid(bad, w) == "" {
			t.Errorf("mismatching response accepted: %+v", bad)
		}
	}
}

// A declared metric the run did not produce is reported absent and left
// out of the result line; it is never printed as zero.
func TestAbsentIsNotZero(t *testing.T) {
	r := newResult()
	r.check(true, "")
	r.set("fastpath.gag.plain.events_per_s", 5e7, "sim-ev/s", 5, "probe")
	r.set("trace.cache_mb", 12, "kB", 0, "workload") // wrong unit
	want := []declaredMetric{
		{"fastpath.gag.plain.events_per_s", "sim-ev/s"},
		{"fastpath.sharded2.events_per_s", "sim-ev/s"},
		{"trace.cache_mb", "MB"},
	}
	out, absent := finalize(r, want)
	if !reflect.DeepEqual(absent, []string{"fastpath.sharded2.events_per_s", "trace.cache_mb"}) {
		t.Errorf("absent = %v", absent)
	}
	if _, ok := out.Metrics["fastpath.sharded2.events_per_s"]; ok {
		t.Error("absent metric printed")
	}
	if len(out.Metrics) != 1 || !out.Correct {
		t.Errorf("result line = %+v", out)
	}
}

// Quantiles come from raw samples: distinct populations give distinct
// p50 and p95, where log2 buckets would report one bucket bound for both.
func TestQuantileExact(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	if p50, p95 := quantile(v, 0.5), quantile(v, 0.95); p50 != 50.5 || p95 != 95.05 {
		t.Errorf("p50 %v p95 %v, want 50.5 and 95.05", p50, p95)
	}
	if v[0] != 100 {
		t.Error("quantile reordered its input")
	}
}
