// Chaos suite: the server driven with internal/faultinject and hostile
// clients — panicking cells, torn captures, mid-request cancels,
// slow-loris bodies — asserting the robustness contract: shed with
// 429s, never crash, never block unrelated tenants, and keep serving
// answers bit-identical to direct sim.Run throughout.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twolevel/internal/faultinject"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// panicPredictor panics on the Nth prediction.
type panicPredictor struct {
	predictor.Predictor
	after int
	n     int
}

func (p *panicPredictor) Predict(b trace.Branch) bool {
	if p.n++; p.n >= p.after {
		panic("chaos: poisoned predictor")
	}
	return p.Predictor.Predict(b)
}

// poisonConfig makes the named spec panic mid-run, all others normal.
func poisonConfig(cfg Config, poison string) Config {
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		if sp.String() == poison {
			return &panicPredictor{Predictor: p, after: 100}, nil
		}
		return p, nil
	}
	return cfg
}

// TestChaosPanickingCellIsolated poisons the middle cell of a 3-cell
// batch; internal/experiments' TestChaosBatchFallbackParity checks the
// same figures for the same batch shape under the experiment grid, since
// both run it through the one ladder, experiments.RunBatch.
func TestChaosPanickingCellIsolated(t *testing.T) {
	specs := []string{
		testSpecs[0],
		"GAg(HR(1,,8-sr),1xPHT(2^8,A2))", // the poisoned cell
		testSpecs[1],
	}
	poison := spec.MustParse(specs[1]).String()
	// TenantCells 3: the three cells share one batch on any machine.
	s := New(poisonConfig(Config{TenantCells: 3}, poison))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, gr := postGrid(t, ts.Client(), ts.URL, "chaotic", GridRequest{
		Bench: testBench, Specs: specs, Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite the panic", res.StatusCode)
	}
	if gr.Completed != 2 || gr.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 2/1", gr.Completed, gr.Failed)
	}
	// The poisoned cell is attributed, with the panic surfaced.
	bad := gr.Cells[1]
	if !strings.Contains(bad.Error, "panic") || !strings.Contains(bad.Error, "poisoned") {
		t.Errorf("poisoned cell error = %q, want the recovered panic", bad.Error)
	}
	if bad.Attempts != 2 {
		t.Errorf("poisoned cell attempts = %d, want 2 (the shared pass, then alone)", bad.Attempts)
	}
	// The healthy neighbours are bit-identical to direct runs.
	assertCellMatches(t, gr.Cells[0], directResult(t, specs[0], testBranches))
	assertCellMatches(t, gr.Cells[2], directResult(t, specs[2], testBranches))
	// The batch pass fell back to per-cell isolation, once, and ran
	// each of its three cells alone.
	if g := s.grid.Snapshot(); g.BatchFallbacks != 1 || g.CellsRetried != 3 || g.CellsFailed != 1 {
		t.Errorf("grid monitor: fallbacks=%d retried=%d failed=%d, want 1/3/1", g.BatchFallbacks, g.CellsRetried, g.CellsFailed)
	}
	// The process keeps serving.
	res, gr = postGrid(t, ts.Client(), ts.URL, "after", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("post-chaos request: status=%d failed=%d", res.StatusCode, gr.Failed)
	}
}

// TestChaosOneCellBatchNotIsolated is the brserve half of
// internal/experiments' test of the same name: at TenantCells 1 every
// batch holds one cell, so a poisoned cell's failed shared pass is its
// only attempt — its predictor is built once, and no fallback or
// retried cell is counted.
func TestChaosOneCellBatchNotIsolated(t *testing.T) {
	poison := spec.MustParse(testSpecs[0]).String()
	cfg := poisonConfig(Config{TenantCells: 1}, poison)
	build := cfg.buildPredictor
	var builds atomic.Int32
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		builds.Add(1)
		return build(sp, td)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, gr := postGrid(t, ts.Client(), ts.URL, "single", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 1 {
		t.Fatalf("status=%d failed=%d, want 200 with the one cell failed", res.StatusCode, gr.Failed)
	}
	if c := gr.Cells[0]; c.Attempts != 1 || !strings.Contains(c.Error, "poisoned") {
		t.Errorf("cell attempts=%d error=%q, want 1 attempt failing with the recovered panic", c.Attempts, c.Error)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("predictor built %d times, want 1", got)
	}
	if g := s.grid.Snapshot(); g.BatchFallbacks != 0 || g.CellsRetried != 0 || g.CellsFailed != 1 {
		t.Errorf("grid monitor: fallbacks=%d retried=%d failed=%d, want 0/0/1", g.BatchFallbacks, g.CellsRetried, g.CellsFailed)
	}
}

func TestChaosCaptureFaultIsTransient(t *testing.T) {
	// The first interpreter open tears mid-capture; later opens heal.
	var mu sync.Mutex
	opens := 0
	cfg := Config{}
	cfg.openBench = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		src, err := b.NewSource(ds)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		opens++
		torn := opens == 1
		mu.Unlock()
		if torn {
			return &faultinject.ErrorAfter{Src: src, N: 100, Err: errors.New("chaos: torn capture")}, nil
		}
		return src, nil
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := GridRequest{Bench: testBench, Specs: testSpecs[:1], Branches: testBranches}
	res, _ := postGrid(t, ts.Client(), ts.URL, "unlucky", req)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("torn capture status = %d, want 500", res.StatusCode)
	}
	// The fault is not sticky: the cache entry was reset, the retry
	// re-captures and serves the exact direct-run answer.
	res, gr := postGrid(t, ts.Client(), ts.URL, "unlucky", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healed capture status = %d, want 200", res.StatusCode)
	}
	assertCellMatches(t, gr.Cells[0], directResult(t, testSpecs[0], testBranches))
}

func TestChaosMidRequestClientCancel(t *testing.T) {
	const budget = 200_000
	slowSpec := spec.MustParse(testSpecs[1]).String()
	cfg := Config{MaxBranches: budget}
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		if sp.String() == slowSpec {
			return &slowPredictor{Predictor: p}, nil
		}
		return p, nil
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the capture so the cancel lands mid-simulation.
	if res, _ := postGrid(t, ts.Client(), ts.URL, "warm", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: budget,
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", res.StatusCode)
	}

	body, _ := json.Marshal(GridRequest{Bench: testBench, Specs: testSpecs[1:2], Branches: budget})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "quitter")
	errc := make(chan error, 1)
	go func() {
		res, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "request admitted", func() bool {
		return s.agg.Snapshot().Admitted >= 2
	})
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no client error")
	}
	// The handler must settle (no leaked in-flight work)...
	waitFor(t, "handler to settle", func() bool {
		snap := s.agg.Snapshot()
		return snap.Completed+snap.Failed >= 2
	})
	// ...and the server keeps serving correct answers.
	res, gr := postGrid(t, ts.Client(), ts.URL, "survivor", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("post-cancel request: status=%d failed=%d", res.StatusCode, gr.Failed)
	}
	assertCellMatches(t, gr.Cells[0], directResult(t, testSpecs[0], testBranches))
}

func TestChaosSlowLorisBodyFreesSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, WriteTimeout: 300 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A client that sends headers plus a byte of body, then stalls. It
	// passes admission (headers carry the tenant) and parks in the body
	// read — the read deadline must evict it, freeing the only slot.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/grid HTTP/1.1\r\nHost: loris\r\nX-Tenant: loris\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{")

	waitFor(t, "loris to hold the slot", func() bool {
		return s.queued.Load() == 1
	})
	// While the loris stalls, a well-behaved request must still get
	// through once the deadline evicts it (within ~WriteTimeout).
	res, gr := postGrid(t, ts.Client(), ts.URL, "patient", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("patient request: status=%d", res.StatusCode)
	}
	waitFor(t, "loris to be evicted", func() bool {
		return s.queued.Load() == 0
	})
	if snap := s.agg.Snapshot(); snap.Rejected == 0 {
		t.Error("evicted slow-loris not counted as rejected")
	}
}

func TestChaosNoisyNeighborCannotStarveQuietTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained chaos run in -short")
	}
	poison := spec.MustParse("GAg(HR(1,,8-sr),1xPHT(2^8,A2))").String()
	cfg := poisonConfig(Config{
		MaxConcurrent: 4,
		MaxQueue:      16,
		TenantCells:   2,
	}, poison)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pre-warm so every request replays the shared capture.
	if res, _ := postGrid(t, ts.Client(), ts.URL, "warm", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	}); res.StatusCode != http.StatusOK {
		t.Fatal("warm request failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Noisy tenant: a stream of panicking grids and abandoned requests.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(GridRequest{
				Bench: testBench, Specs: []string{poison, poison}, Branches: testBranches,
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
				req.Header.Set("X-Tenant", "noisy")
				res, err := ts.Client().Do(req)
				if err == nil {
					io.Copy(io.Discard, res.Body)
					res.Body.Close()
				}
			}
		}()
	}

	// Quiet tenant: correct answers throughout the storm.
	want := directResult(t, testSpecs[0], testBranches)
	deadline := time.Now().Add(1500 * time.Millisecond)
	quietRuns := 0
	for time.Now().Before(deadline) {
		res, gr := postGrid(t, ts.Client(), ts.URL, "quiet", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
		})
		switch res.StatusCode {
		case http.StatusOK:
			quietRuns++
			if gr.Failed != 0 {
				t.Fatalf("quiet tenant saw failed cells: %+v", gr.Cells)
			}
			assertCellMatches(t, gr.Cells[0], want)
		case http.StatusTooManyRequests:
			// Fair shedding under a full queue is allowed; wrong answers
			// and 5xx are not.
		default:
			t.Fatalf("quiet tenant got status %d", res.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	if quietRuns == 0 {
		t.Fatal("quiet tenant never completed a request during the storm")
	}
	t.Logf("quiet tenant completed %d grids during the storm", quietRuns)

	// The server never crashed and the noisy tenant's damage is fenced:
	// its failures are per-cell, its monitor records them.
	noisy, ok := s.ten.lookup("noisy")
	if !ok {
		t.Fatal("noisy tenant never registered")
	}
	if noisy.grid.Snapshot().CellsFailed == 0 {
		t.Error("noisy tenant's poisoned cells not recorded as failures")
	}
	if res, _ := postGrid(t, ts.Client(), ts.URL, "after", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request status = %d", res.StatusCode)
	}
}
