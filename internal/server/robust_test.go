package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"twolevel/internal/prog"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// Robustness: a grid request body is untrusted input. Whatever it
// says, the server must answer with a client or success status and
// never capture more than its MaxBranches cap from a benchmark.

// trainedSpec needs a training pass over the benchmark's training set.
const trainedSpec = "PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))"

// hugeSpec parses, and can be costed, but its one pattern table of 2^30
// entries would hold about a gigabyte; building it is refused.
const hugeSpec = "GAg(HR(1,,30-sr),1xPHT(2^30,A2))"

// TestHugePatternTableRefused: a spec whose pattern tables exceed
// predictor.MaxPatternEntries fails spec.Build, and /v1/grid answers it
// with a client error without allocating the tables. Behind an Ideal BHT
// every distinct branch of the trace gets a 2^22-entry table, so the
// eight branches of synthSource's trace go over the cap although one
// table alone is under it.
func TestHugePatternTableRefused(t *testing.T) {
	sp, err := spec.Parse(hugeSpec)
	if err != nil {
		t.Fatalf("spec.Parse(%s): %v", hugeSpec, err)
	}
	if _, err := spec.Build(sp, nil); err == nil {
		t.Fatalf("spec.Build(%s) succeeded", sp)
	}
	cfg := Config{MaxBranches: 2_000, DefaultBranches: 500, Workers: 1}
	cfg.openBench = func(*prog.Benchmark, prog.DataSet) (trace.Source, error) { return &synthSource{}, nil }
	s := New(cfg)
	for _, raw := range []string{
		hugeSpec,
		"PAp(IBHT(inf,,22-sr),infxPHT(2^22,A2))",
		"GAp(HR(1,,22-sr),infxPHT(2^22,A2))",
	} {
		body, err := json.Marshal(GridRequest{Bench: testBench, Specs: []string{raw}})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s: status %d, want a 4xx: %.600s", raw, rec.Code, rec.Body.String())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Fatalf("%s: refusing the request allocated %d MB", raw, grew>>20)
		}
	}
}

func TestTrainBranchesCapped(t *testing.T) {
	var mu sync.Mutex
	var opened []string
	cfg := Config{MaxBranches: 1_000}
	cfg.openBench = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		mu.Lock()
		opened = append(opened, ds.Name)
		mu.Unlock()
		return b.NewSource(ds)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, _ := postGrid(t, ts.Client(), ts.URL, "train", GridRequest{
		Bench: testBench, Specs: []string{trainedSpec}, Branches: 1_000, TrainBranches: 2_000_000,
	})
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("train_branches over the cap: status = %d, want 400", res.StatusCode)
	}
	b, err := prog.ByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range opened {
		if name == b.Training.Name {
			t.Fatalf("a training capture started for a refused request (opened %v)", opened)
		}
	}
}

// synthSource is an endless synthetic branch stream that counts the
// conditional branches it hands out. Being endless, only the server's
// budget decides how much of it a capture reads.
type synthSource struct {
	n     uint32
	conds uint64
}

func (s *synthSource) Next() (trace.Event, error) {
	s.n++
	br := trace.Branch{PC: 0x1000 + 4*(s.n%8), Target: 0x1000, Class: trace.Cond, Taken: s.n%3 != 0}
	if s.n%5 == 0 {
		br.Class, br.Taken = trace.Uncond, true
	} else {
		s.conds++
	}
	return trace.Event{Instrs: 1 + s.n%4, Branch: br}, nil
}

// FuzzGridRequest posts arbitrary bodies to /v1/grid on a fresh server
// with small caps and a synthetic benchmark source. Whatever the body
// asks for, the request must allocate under 64 MB, the bound
// TestHugePatternTableRefused holds a refused spec to.
func FuzzGridRequest(f *testing.F) {
	const maxBranches = 2_000
	for _, req := range []GridRequest{
		{Bench: testBench, Specs: testSpecs},
		{Bench: testBench, Specs: testSpecs[:1], Branches: maxBranches},
		{Bench: testBench, Specs: []string{trainedSpec}, TrainBranches: maxBranches},
		{Bench: testBench, Specs: []string{trainedSpec}, TrainBranches: 2_000_000},
		{Bench: testBench, Specs: []string{"Profiling"}, Branches: 100, TrainBranches: 300},
		{Bench: testBench, Specs: testSpecs[:1], Stream: true, Interval: 100, TopMispredicted: 2},
		{Bench: testBench, Specs: testSpecs, Branches: 20_000},
		{Bench: "nope", Specs: testSpecs},
		{Trace: "0123456789abcdef", Specs: testSpecs[:1]},
		{Bench: testBench, Specs: []string{hugeSpec}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{"", "{", "null", "[]", `{"bench":"eqntott","specs":["garbage("]}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var mu sync.Mutex
		var sources []*synthSource
		cfg := Config{MaxCells: 2, MaxBranches: maxBranches, DefaultBranches: 500, Workers: 1, TenantCells: 1}
		cfg.openBench = func(*prog.Benchmark, prog.DataSet) (trace.Source, error) {
			src := &synthSource{}
			mu.Lock()
			sources = append(sources, src)
			mu.Unlock()
			return src, nil
		}
		s := New(cfg)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Fatalf("a request allocated %d MB, over the bound of 64 MB (body %q)", grew>>20, body)
		}

		var req GridRequest // decoded as handleGrid decodes it
		clientDeadline := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.TimeoutMS > 0
		switch code := rec.Code; {
		case code >= 200 && code < 300, code >= 400 && code < 500:
		case code == http.StatusServiceUnavailable && clientDeadline:
			// A client-set deadline that expires mid-capture is
			// answered 503 "capture cancelled".
		default:
			t.Fatalf("status %d for body %q: %s", code, body, rec.Body.String())
		}
		mu.Lock()
		defer mu.Unlock()
		for _, src := range sources {
			if src.conds > maxBranches {
				t.Fatalf("a capture read %d conditional branches, over the cap of %d (body %q)", src.conds, maxBranches, body)
			}
		}
	})
}

// FuzzUpload posts arbitrary bodies to /v1/traces on a fresh server with
// a small upload cap. An upload is untrusted input: every answer must be
// a success or a client error, and a body over the cap must get 413.
func FuzzUpload(f *testing.F) {
	const maxUpload = 512
	var p trace.Packed
	for i := uint32(0); i < 6; i++ {
		p.Append(trace.Event{Instrs: 1 + i, Branch: trace.Branch{
			PC: 0x1000 + 4*i, Target: 0x1000, Class: trace.Cond, Taken: i%2 == 0}})
	}
	p.Append(trace.Event{Instrs: 3, Trap: true})
	snap := p.View(p.Len())
	var text, bin bytes.Buffer
	if err := trace.WriteText(&text, snap.Reader()); err != nil {
		f.Fatal(err)
	}
	w, err := trace.NewWriter(&bin)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteAll(snap.Reader()); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:bin.Len()/2])
	f.Add([]byte("TLBPTRC1"))
	f.Add([]byte("not a trace"))
	f.Add([]byte{})
	f.Add(make([]byte, maxUpload))
	f.Add(make([]byte, maxUpload+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{MaxUploadBytes: maxUpload})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(body)))
		switch code := rec.Code; {
		case len(body) > maxUpload:
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d for a %d-byte body over the %d-byte cap, want 413", code, len(body), maxUpload)
			}
		case code == http.StatusRequestEntityTooLarge:
			t.Fatalf("status 413 for a %d-byte body within the %d-byte cap", len(body), maxUpload)
		case code >= 200 && code < 300, code >= 400 && code < 500:
		default:
			t.Fatalf("status %d for body %q: %s", code, body, rec.Body.String())
		}
	})
}
