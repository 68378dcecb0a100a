// Load generator: sustained concurrent grid requests against one
// brserve process, counting what the server's admission machinery did
// with them. cmd/brserve -loadgen drives it from the CLI.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/span"
)

// LoadGen configures one load run.
type LoadGen struct {
	// URL is the server base URL (e.g. http://127.0.0.1:8080).
	URL string
	// Concurrency is the number of closed-loop client goroutines
	// (default 8): each fires its next request as soon as the previous
	// answer lands, so offered load rises to whatever the server
	// admits.
	Concurrency int
	// Tenants spreads requests round-robin over this many distinct
	// X-Tenant IDs (default 2), exercising per-tenant quotas.
	Tenants int
	// Duration bounds the run (default 2s).
	Duration time.Duration
	// Bench, Specs and Branches form the grid each request submits
	// (defaults: eqntott, a two-spec GAs grid, 20000 branches).
	Bench    string
	Specs    []string
	Branches uint64
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

// LoadReport is what a load run observed, from the client side.
type LoadReport struct {
	Requests       uint64  `json:"requests"`
	Completed      uint64  `json:"completed"`
	Shed           uint64  `json:"shed"`    // 429 answers (queue or quota)
	Drained        uint64  `json:"drained"` // 503 answers
	Errored        uint64  `json:"errored"` // transport errors and 4xx/5xx beyond the above
	Events         uint64  `json:"events"`  // simulator events across completed grids
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"` // completed grids per second
	EventsPerSec   float64 `json:"events_per_sec"`
	ShedRate       float64 `json:"shed_rate"` // shed / (all answered)
	LatencyP50     float64 `json:"latency_p50_seconds"`
	LatencyP95     float64 `json:"latency_p95_seconds"`
	LatencyMean    float64 `json:"latency_mean_seconds"`
}

func (g *LoadGen) withDefaults() LoadGen {
	out := *g
	if out.Concurrency <= 0 {
		out.Concurrency = 8
	}
	if out.Tenants <= 0 {
		out.Tenants = 2
	}
	if out.Duration <= 0 {
		out.Duration = 2 * time.Second
	}
	if out.Bench == "" {
		out.Bench = "eqntott"
	}
	if len(out.Specs) == 0 {
		out.Specs = []string{
			"GAg(HR(1,,10-sr),1xPHT(2^10,A2))",
			"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
		}
	}
	if out.Branches == 0 {
		out.Branches = 20_000
	}
	if out.Client == nil {
		out.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return out
}

// Run drives the configured load until the duration (or ctx) expires
// and returns the aggregate report. Transport-level failures are
// counted, not fatal; the only error is a ctx cancelled before the
// first request completes with the server never reachable.
func (g *LoadGen) Run(ctx context.Context) (LoadReport, error) {
	cfg := g.withDefaults()
	body, err := json.Marshal(GridRequest{
		Bench:    cfg.Bench,
		Specs:    cfg.Specs,
		Branches: cfg.Branches,
	})
	if err != nil {
		return LoadReport{}, err
	}

	var (
		requests, completed, shed, drained, errored, events atomic.Uint64
		latency                                             span.Histogram
		seq                                                 atomic.Uint64
	)
	// The deadline gates issuing NEW requests only; a request already in
	// flight when it passes runs to its answer and is classified. That
	// keeps the report total: every issued request lands in exactly one
	// bucket, so client-side counts equal the server's admission
	// counters (ctx cancellation, e.g. SIGINT, still aborts mid-flight).
	start := now()
	deadline := start.Add(cfg.Duration)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && now().Before(deadline) {
				tenant := "load-" + strconv.FormatUint(seq.Add(1)%uint64(cfg.Tenants), 10)
				requests.Add(1)
				began := now()
				status, resp, err := cfg.post(ctx, tenant, body)
				switch {
				case err != nil:
					if ctx.Err() != nil {
						return
					}
					errored.Add(1)
				case status == http.StatusTooManyRequests:
					shed.Add(1)
				case status == http.StatusServiceUnavailable:
					drained.Add(1)
				case status == http.StatusOK && resp != nil && resp.Failed == 0:
					completed.Add(1)
					latency.Observe(now().Sub(began))
					for _, c := range resp.Cells {
						events.Add(c.Events)
					}
				default:
					errored.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	rep := LoadReport{
		Requests:  requests.Load(),
		Completed: completed.Load(),
		Shed:      shed.Load(),
		Drained:   drained.Load(),
		Errored:   errored.Load(),
		Events:    events.Load(),
	}
	rep.ElapsedSeconds = now().Sub(start).Seconds()
	if rep.ElapsedSeconds > 0 {
		rep.RequestsPerSec = float64(rep.Completed) / rep.ElapsedSeconds
		rep.EventsPerSec = float64(rep.Events) / rep.ElapsedSeconds
	}
	if answered := rep.Completed + rep.Shed + rep.Drained + rep.Errored; answered > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(answered)
	}
	if latency.Count() > 0 {
		rep.LatencyP50 = latency.Quantile(0.5).Seconds()
		rep.LatencyP95 = latency.Quantile(0.95).Seconds()
		rep.LatencyMean = latency.Mean().Seconds()
	}
	if rep.Completed == 0 && rep.Shed == 0 && rep.Drained == 0 {
		return rep, fmt.Errorf("load run completed nothing: %d requests all errored (server unreachable?)", rep.Requests)
	}
	return rep, nil
}

// post submits one grid request and decodes a 200 answer.
func (cfg *LoadGen) post(ctx context.Context, tenant string, body []byte) (int, *GridResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	res, err := cfg.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()
	if res.StatusCode != http.StatusOK {
		return res.StatusCode, nil, nil
	}
	var gr GridResponse
	if err := json.NewDecoder(res.Body).Decode(&gr); err != nil {
		return res.StatusCode, nil, err
	}
	return res.StatusCode, &gr, nil
}
