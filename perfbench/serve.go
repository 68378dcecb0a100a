package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/prog"
	"twolevel/internal/rng"
	"twolevel/internal/server"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// serveBranches is the per-cell budget every serve probe grid carries:
// small enough that a request costs a few milliseconds.
const serveBranches = 20_000

// probeRate is the serve probe's open-loop arrival rate, in requests per
// second. It was set once, at about 30% of the saturation goodput (371
// req/s, see README.md) measured on the tree that introduced this
// benchmark, and stays fixed so later trees are probed under the same
// offered load.
const probeRate = 110.0

// Request kinds of the serve probe's traffic mix.
const (
	kindGrid   = "grid"   // buffered bench grid, ~70%
	kindStream = "stream" // streamed grid with intervals and verdicts, ~20%
	kindUpload = "upload" // trace upload, then one grid on it, ~10%
)

// serveRequest is one generated request. The program receives only
// these: the benchmark name, spec strings and upload bytes.
type serveRequest struct {
	Due    time.Duration
	Kind   string
	Bench  string
	Specs  []string
	Upload []byte
}

// servePool is the spec pool without specs that need a training pass.
func servePool() []string {
	var out []string
	for _, ps := range specPool() {
		if sp, err := spec.Parse(ps.Spec); err == nil && !sp.NeedsTraining() {
			out = append(out, ps.Spec)
		}
	}
	return out
}

// serveInputs draws the request list: Poisson arrivals at rate over d.
func serveInputs(seed uint64, d time.Duration, rate float64) ([]serveRequest, error) {
	r := rng.New(seed)
	pool := servePool()
	var reqs []serveRequest
	for _, due := range poissonArrivals(r.Fork(), rate, d) {
		rq := serveRequest{Due: due, Kind: kindGrid}
		switch u := r.Float64(); {
		case u < 0.1:
			rq.Kind = kindUpload
			up, err := uploadTrace(r, between(r, 4000, 12000))
			if err != nil {
				return nil, err
			}
			rq.Upload = up
		case u < 0.3:
			rq.Kind = kindStream
		}
		rq.Bench = prog.All[r.Intn(len(prog.All))].Name
		for _, i := range r.Perm(len(pool))[:between(r, 2, 6)] {
			rq.Specs = append(rq.Specs, pool[i])
		}
		reqs = append(reqs, rq)
	}
	return reqs, nil
}

// cellWant is one cell's expected wire outcome.
type cellWant struct {
	spec           string
	predictions    uint64
	mispredictions uint64
	events         uint64
}

// want is a request's expected response: the replayed snapshot's
// checksum and every cell, computed by a local sim.Run of the same cell.
type want struct {
	checksum string
	cells    []cellWant
}

// expect computes the expected response of every request.
func expect(reqs []serveRequest) ([]want, error) {
	cache := trace.NewCaptureCache()
	memo := map[string]cellWant{}
	out := make([]want, len(reqs))
	for i, rq := range reqs {
		var snap trace.Snapshot
		var err error
		key := rq.Bench
		if rq.Kind == kindUpload {
			if snap, err = packUpload(rq.Upload); err != nil {
				return nil, err
			}
			key = ""
		} else {
			b, err := prog.ByName(rq.Bench)
			if err != nil {
				return nil, err
			}
			if snap, err = capture(cache, b, b.Testing, serveBranches, nil); err != nil {
				return nil, err
			}
		}
		out[i].checksum = fmt.Sprintf("%016x", snap.Checksum())
		for _, raw := range rq.Specs {
			if c, ok := memo[key+"|"+raw]; ok && key != "" {
				out[i].cells = append(out[i].cells, c)
				continue
			}
			sp, err := spec.Parse(raw)
			if err != nil {
				return nil, err
			}
			p, err := spec.Build(sp, nil)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(p, snap.Reader(), sim.Options{ContextSwitches: sp.ContextSwitch, MaxCondBranches: serveBranches})
			if err != nil {
				return nil, err
			}
			c := cellWant{
				spec:           sp.String(),
				predictions:    res.Accuracy.Predictions,
				mispredictions: res.Accuracy.Predictions - res.Accuracy.Correct,
				events:         experiments.ResultEvents(res),
			}
			memo[key+"|"+raw] = c
			out[i].cells = append(out[i].cells, c)
		}
	}
	return out, nil
}

// packUpload decodes an upload body into a snapshot, as the server does.
func packUpload(body []byte) (trace.Snapshot, error) {
	fr, err := trace.NewFileReader(bytes.NewReader(body))
	if err != nil {
		return trace.Snapshot{}, err
	}
	var p trace.Packed
	for {
		e, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return p.View(p.Len()), nil
		}
		if err != nil {
			return trace.Snapshot{}, err
		}
		p.Append(e)
	}
}

// liveServer is an in-process brserve instance on a loopback port.
type liveServer struct {
	srv    *server.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	served chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := runtime.NumCPU()
	ls := &liveServer{
		// Production defaults, except for the cell pool: the server takes
		// a batch's tenant and pool slots one at a time, so two admitted
		// requests that each hold part of a full pool wait on each other
		// until their deadline. A pool as large as every admitted request's
		// biggest batch (MaxConcurrent × TenantCells, both nproc by
		// default) cannot be split that way; the client's one tenant per
		// connection does the same for the tenant slots.
		srv:    server.New(server.Config{Workers: n * n}),
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		}},
	}
	go func() { ls.served <- ls.srv.Serve(ctx, ln) }()
	return ls, nil
}

// stop drains the server and waits for it to exit.
func (ls *liveServer) stop() error {
	ls.client.CloseIdleConnections()
	ls.cancel()
	return <-ls.served
}

// post sends one request as tenant.
func (ls *liveServer) post(tenant, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, ls.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	return ls.client.Do(req)
}

// warm captures every benchmark on the server, so timed requests replay
// from a warm cache as they would on a long-running server.
func (ls *liveServer) warm() error {
	for _, b := range prog.All {
		body, err := json.Marshal(server.GridRequest{Bench: b.Name, Specs: []string{"BTFN"}, Branches: serveBranches})
		if err != nil {
			return err
		}
		resp, err := ls.post("warm", "/v1/grid", body)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warming %s: HTTP %d", b.Name, resp.StatusCode)
		}
	}
	return nil
}

// served is one request's measured outcome. sent is an offset from the
// schedule start.
type served struct {
	sent        time.Duration
	gridService time.Duration // send to last byte of the grid request
	ok          bool
	err         string
}

// drive sends reqs open-loop: each request is due at its offset, and at
// most nproc workers (each holding at most one connection) send them in
// due order. A stalled worker makes every later request late, which the
// send lag (sent minus due) shows.
func (ls *liveServer) drive(reqs []serveRequest, wants []want) []served {
	out := make([]served, len(reqs))
	queue := make(chan int, len(reqs)) // one slot per request: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i, rq := range reqs {
			if d := rq.Due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			queue <- i
		}
	}()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := range queue {
				out[i] = ls.do(reqs[i], wants[i], start, tenant)
			}
		}(fmt.Sprintf("client-%d", w))
	}
	wg.Wait()
	return out
}

// do sends one request and checks its response against want.
func (ls *liveServer) do(rq serveRequest, w want, start time.Time, tenant string) served {
	s := served{sent: time.Since(start)}
	fail := func(format string, args ...any) served {
		s.err = fmt.Sprintf(format, args...)
		return s
	}
	gr := server.GridRequest{Bench: rq.Bench, Specs: rq.Specs, Branches: serveBranches}
	if rq.Kind == kindUpload {
		resp, err := ls.post(tenant, "/v1/traces", rq.Upload)
		if err != nil {
			return fail("upload: %v", err)
		}
		var info struct {
			Trace    string `json:"trace"`
			Checksum string `json:"checksum"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fail("upload: HTTP %d: %v", resp.StatusCode, err)
		}
		if info.Checksum != w.checksum {
			return fail("upload checksum %s, want %s", info.Checksum, w.checksum)
		}
		gr.Bench, gr.Trace = "", info.Trace
	}
	if rq.Kind == kindStream {
		gr.Stream = true
		gr.Interval = serveBranches / 10
		gr.TopMispredicted = 4
	}
	body, err := json.Marshal(gr)
	if err != nil {
		return fail("encoding: %v", err)
	}
	began := time.Now()
	resp, err := ls.post(tenant, "/v1/grid", body)
	if err != nil {
		return fail("grid: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fail("grid: HTTP %d", resp.StatusCode)
	}
	var got server.GridResponse
	var intervals int
	if gr.Stream {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			var ev struct {
				Type    string               `json:"type"`
				Cell    *server.Cell         `json:"cell"`
				Summary *server.GridResponse `json:"summary"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return fail("stream line: %v", err)
			}
			switch ev.Type {
			case "interval":
				intervals++
			case "cell":
				got.Cells = append(got.Cells, *ev.Cell)
			case "summary":
				cells := got.Cells
				got = *ev.Summary
				got.Cells = cells
			}
		}
		if err := sc.Err(); err != nil {
			return fail("stream: %v", err)
		}
		if intervals == 0 {
			return fail("stream carried no interval events")
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return fail("grid body: %v", err)
	}
	s.gridService = time.Since(began)
	if msg := checkGrid(got, w); msg != "" {
		s.err = msg
		return s
	}
	s.ok = true
	return s
}

// checkGrid compares a grid response with its expectation and returns
// what disagrees ("" when everything matches).
func checkGrid(got server.GridResponse, w want) string {
	if got.Checksum != w.checksum {
		return fmt.Sprintf("checksum %s, want %s", got.Checksum, w.checksum)
	}
	if got.Failed != 0 || got.Completed != len(w.cells) || len(got.Cells) != len(w.cells) {
		return fmt.Sprintf("%d completed, %d failed, %d cells; want %d", got.Completed, got.Failed, len(got.Cells), len(w.cells))
	}
	for i, c := range got.Cells {
		e := w.cells[i]
		if c.Spec != e.spec || c.Error != "" || c.Predictions != e.predictions ||
			c.Mispredictions != e.mispredictions || c.Events != e.events {
			return fmt.Sprintf("cell %s: %d/%d predictions/mispredictions, %d events; want %d/%d, %d",
				c.Spec, c.Predictions, c.Mispredictions, c.Events, e.predictions, e.mispredictions, e.events)
		}
	}
	return ""
}

// serveEnv is a started server with its request list and expectations.
type serveEnv struct {
	ls    *liveServer
	reqs  []serveRequest
	wants []want
}

func setupServe(reqs []serveRequest) (*serveEnv, error) {
	wants, err := expect(reqs)
	if err != nil {
		return nil, err
	}
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	if err := ls.warm(); err != nil {
		ls.stop()
		return nil, err
	}
	return &serveEnv{ls: ls, reqs: reqs, wants: wants}, nil
}

// ledger drives env's requests and decomposes their time from the
// server's span tree: per grid request, the capture and replay spans, the
// rest of the grid span (admission is outside it: decode, training,
// spec.Build, encode and write are inside), and the HTTP round trip the
// client saw beyond the grid span. Every response is a checked operation.
func (env *serveEnv) ledger(r *result) error {
	tr := env.ls.srv.Tracer()
	lastID := uint64(0)
	for _, rec := range tr.Snapshot() {
		lastID = max(lastID, rec.ID)
	}
	heap0 := liveHeap()
	out := env.ls.drive(env.reqs, env.wants)
	heap1 := liveHeap()

	var lag []float64
	var client time.Duration
	for i, s := range out {
		rq := env.reqs[i]
		r.check(s.ok, rq.Kind+" on "+rq.Bench+": "+s.err)
		lag = append(lag, ms(s.sent-rq.Due))
		client += s.gridService
	}
	var recs []span.Record
	for _, rec := range tr.Snapshot() {
		if rec.ID > lastID {
			recs = append(recs, rec)
		}
	}
	l := ledgerOf(recs)
	grids := l.count["grid"]
	if grids == 0 {
		return errors.New("server recorded no grid spans")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(grids) }
	grid := l.total["grid"]
	const source = "probe"
	r.set("server.capture_ms_per_req", per(l.total["capture"]), "ms", grids, source)
	r.set("server.replay_ms_per_req", per(l.total["replay"]), "ms", grids, source)
	r.set("server.self_ms_per_req", per(grid-l.total["capture"]-l.total["replay"]), "ms", grids, source)
	r.set("server.http_ms_per_req", per(client-grid), "ms", grids, source)
	r.set("server.span_coverage", float64(grid)/float64(client), "ratio", grids, source)
	r.set("server.retained_kb_per_req", (float64(heap1)-float64(heap0))/1024/float64(len(out)), "kB", len(out), source)
	r.set("loadgen.lag_ms_p99", quantile(lag, 0.99), "ms", len(lag), source)
	return nil
}
