package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"twolevel/internal/prog"
	"twolevel/internal/trace"
)

// Robustness: a grid request body is untrusted input. Whatever it
// says, the server must answer with a client or success status and
// never capture more than its MaxBranches cap from a benchmark.

// trainedSpec needs a training pass over the benchmark's training set.
const trainedSpec = "PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))"

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
// with small caps and a synthetic benchmark source.
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
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body)))

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
