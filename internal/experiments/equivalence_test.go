package experiments

import (
	"reflect"
	"testing"

	"twolevel/internal/cpu"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
)

// equivalenceSpecs cover the representative scheme families: global,
// per-address-history and per-address two-level predictors, the same with
// context switches, the BTB design, and both training-based schemes.
var equivalenceSpecs = []string{
	"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
	"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
	"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))",
	"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2),c)",
	"GAg(HR(1,,8-sr),1xPHT(2^8,A2),c)",
	"BTB(BHT(512,4,A2),)",
	"PSg(BHT(512,4,10-sr),1xPHT(2^10,PB))",
	"Profiling",
}

func equivalenceBenchmarks(t *testing.T) []*prog.Benchmark {
	t.Helper()
	var out []*prog.Benchmark
	for _, name := range []string{"espresso", "li"} {
		b, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestCachedReplayMatchesLive is the headline equivalence property of the
// capture cache: a run replayed from the shared capture is bit-identical
// (full sim.Result) to the same run over a live CPU interpreter.
func TestCachedReplayMatchesLive(t *testing.T) {
	const budget = 4000
	for _, s := range equivalenceSpecs {
		sp := spec.MustParse(s)
		for _, b := range equivalenceBenchmarks(t) {
			live, err := runCell(sp, b, Options{CondBranches: budget, DisableTraceCache: true})
			if err != nil {
				t.Fatalf("%s/%s live: %v", s, b.Name, err)
			}
			cached, err := runCell(sp, b, Options{CondBranches: budget})
			if err != nil {
				t.Fatalf("%s/%s cached: %v", s, b.Name, err)
			}
			if !reflect.DeepEqual(cached, live) {
				t.Errorf("%s/%s: cached replay differs from live run:\n got %+v\nwant %+v",
					s, b.Name, cached, live)
			}
		}
	}
}

// TestGridMatchesSerialLive checks the batched path end to end: the grid
// scheduler's single-pass multi-predictor replays must reproduce serial
// live runs cell for cell.
func TestGridMatchesSerialLive(t *testing.T) {
	const budget = 4000
	benchmarks := equivalenceBenchmarks(t)
	rows := mustSpecs(equivalenceSpecs...)
	o := Options{CondBranches: budget, Benchmarks: benchmarks}.withDefaults()
	grid, err := runGrid(rows, o)
	if err != nil {
		t.Fatal(err)
	}
	for ri, row := range rows {
		for bi, b := range benchmarks {
			live, err := runCell(row.sp, b, Options{CondBranches: budget, DisableTraceCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(grid[ri][bi], live) {
				t.Errorf("%s/%s: batched grid cell differs from serial live run:\n got %+v\nwant %+v",
					row.label, b.Name, grid[ri][bi], live)
			}
		}
	}
}

// TestPipelinedReplayMatchesLive covers the §3.1 timing model: a pipelined
// run fetches no branch past its budget, so a capture sized to the budget
// replays it exactly like the live interpreter.
func TestPipelinedReplayMatchesLive(t *testing.T) {
	const budget, depth = 4000, 5
	sp := spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))")
	b, err := prog.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{CondBranches: budget}.withDefaults()
	simOpts := sim.Options{MaxCondBranches: budget, PipelineDepth: depth}

	p, err := spec.Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveSrc, err := newSource(b, b.Testing)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(p, liveSrc, simOpts)
	if err != nil {
		t.Fatal(err)
	}

	p, err = spec.Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := o.source(b, b.Testing, budget)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(p, src, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pipelined cached replay differs from live run:\n got %+v\nwant %+v", got, want)
	}
}

// TestInterpreterRunsOncePerTrace is the suite-level acceptance property:
// running every experiment constructs the CPU interpreter at most once per
// (benchmark, data set) — 9 testing + 9 training captures — plus the two
// deliberately live sources of ext-interleave's multiplexed run.
func TestInterpreterRunsOncePerTrace(t *testing.T) {
	ResetCaches()
	base := cpu.Constructions()
	o := Options{CondBranches: 2000}
	for _, id := range IDs() {
		if _, err := Run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	delta := cpu.Constructions() - base
	if limit := uint64(2*len(prog.All) + 2); delta > limit {
		t.Errorf("full suite constructed %d interpreters, want at most %d", delta, limit)
	}
	if delta < uint64(len(prog.All)) {
		t.Errorf("full suite constructed only %d interpreters; the count hook looks broken", delta)
	}
	st := CaptureCacheStats()
	if st.Entries == 0 || st.Events == 0 || st.Bytes == 0 {
		t.Errorf("capture cache unexpectedly empty after full suite: %+v", st)
	}
}
