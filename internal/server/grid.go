// Grid execution: one admitted request resolves its trace snapshot from
// the shared capture cache, then runs its spec grid in tenant-bounded
// batches through experiments.RunBatch, the cell-failure ladder the
// experiment grid uses too: one sim.RunMany pass per batch (fastpath
// kernel included), and per-cell isolated runs when that pass panics or
// errors, so one poisoned cell costs one cell, not the batch and never
// the process. Results are bit-identical to running each cell through
// sim.Run directly; the chaos suite holds the server to that.
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"twolevel/internal/cost"
	"twolevel/internal/experiments"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// allConds asks the capture cache for the whole stream: uploads are
// drained to EOF at upload time, so a replay at this budget never
// extends anything.
const allConds = ^uint64(0)

// GridRequest is the body of POST /v1/grid.
type GridRequest struct {
	// Bench names a built-in benchmark (eqntott, gcc, ...); Trace names
	// a previously uploaded trace by the key POST /v1/traces returned.
	// Exactly one must be set.
	Bench string `json:"bench,omitempty"`
	Trace string `json:"trace,omitempty"`
	// Specs are predictor specifications in the paper naming
	// convention, one grid cell each.
	Specs []string `json:"specs"`
	// Branches is the per-cell conditional-branch budget (0 = server
	// default; capped by the server's MaxBranches).
	Branches uint64 `json:"branches,omitempty"`
	// TrainBranches is the profiling/static training budget for specs
	// that need one (0 = same as Branches; capped by the server's
	// MaxBranches). Benchmark grids train on
	// the benchmark's training data set; uploaded-trace grids train on
	// the first TrainBranches conditional branches of the upload.
	TrainBranches uint64 `json:"train_branches,omitempty"`
	// TimeoutMS tightens the per-request deadline below the server's
	// RequestTimeout (it can never extend it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream switches the response to NDJSON: typed event lines
	// ("interval", "verdict", "cell", "progress", "keepalive") as each
	// cell lands, then a final "summary" line.
	Stream bool `json:"stream,omitempty"`
	// Interval, when positive, samples each cell's live accuracy every
	// Interval resolved conditional branches and streams the samples as
	// "interval" events before the cell's final line. Streaming only;
	// the sample count per cell is capped by the server's
	// MaxStreamSamples.
	Interval uint64 `json:"interval,omitempty"`
	// TopMispredicted, when positive, profiles each cell's worst K
	// branches in the replay kernel and streams a forensics "verdict"
	// event per branch before the cell's final line. Streaming only;
	// capped at maxVerdicts.
	TopMispredicted int `json:"top_mispredicted,omitempty"`
}

// maxVerdicts caps the per-cell streamed verdict events.
const maxVerdicts = 64

// Cell is one grid cell's outcome.
type Cell struct {
	Spec           string  `json:"spec"`
	Accuracy       float64 `json:"accuracy"`
	Predictions    uint64  `json:"predictions"`
	Mispredictions uint64  `json:"mispredictions"`
	Events         uint64  `json:"events"`
	CostBits       float64 `json:"cost_bits,omitempty"`
	Attempts       int     `json:"attempts,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// GridResponse is the body of a non-streamed POST /v1/grid reply, and
// the final summary line of a streamed one (with Cells elided there).
type GridResponse struct {
	Bench    string `json:"bench,omitempty"`
	Trace    string `json:"trace,omitempty"`
	Branches uint64 `json:"branches"`
	// Checksum fingerprints the replayed snapshot (FNV-1a over its
	// logical event columns): two responses with equal checksums measured the
	// same events, so their cells are directly comparable.
	Checksum  string `json:"checksum"`
	Cells     []Cell `json:"cells,omitempty"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// httpError is a request-level failure with a status code; handlers
// translate it into the response envelope.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: 400, msg: fmt.Sprintf(format, args...)}
}

var errUnknownTrace = errors.New("unknown trace key (upload it first via POST /v1/traces)")

// gridCell is one planned cell: its parsed spec plus training data and
// its index in the grid (the key into the job's telemetry sinks).
type gridCell struct {
	idx int
	sp  spec.Spec
	td  *spec.TrainingData
}

// gridJob is a validated, resolved grid request ready to execute.
type gridJob struct {
	req      GridRequest
	tenant   *tenant
	branches uint64
	snap     trace.Snapshot
	cells    []gridCell
	span     *span.Span // per-request root span; nil-safe everywhere
	// tel holds one kernel telemetry sink per cell when the request
	// streams intervals or verdicts (nil otherwise). simOptions plants a
	// fresh sink at the cell's index on every (re)build, so a cell run
	// alone after its batch failed never mixes in samples from the failed
	// pass.
	tel []*sim.Telemetry
}

// sink returns cell idx's telemetry sink (nil when not streaming).
func (j *gridJob) sink(idx int) *sim.Telemetry {
	if j.tel == nil {
		return nil
	}
	return j.tel[idx]
}

// prepare validates req and resolves everything that can fail before
// simulation: spec parsing, trace/benchmark resolution (through the
// shared capture cache) and training passes. Failures come back as
// *httpError so the handler can map them to 4xx/5xx.
func (s *Server) prepare(ctx context.Context, t *tenant, req GridRequest, parent *span.Span) (*gridJob, error) {
	if (req.Bench == "") == (req.Trace == "") {
		return nil, badRequest("exactly one of bench or trace must be set")
	}
	if len(req.Specs) == 0 {
		return nil, badRequest("specs must name at least one predictor")
	}
	if len(req.Specs) > s.cfg.MaxCells {
		return nil, badRequest("grid of %d cells exceeds the per-request cap of %d", len(req.Specs), s.cfg.MaxCells)
	}
	branches := req.Branches
	if branches == 0 {
		branches = s.cfg.DefaultBranches
	}
	if branches > s.cfg.MaxBranches {
		return nil, badRequest("branch budget %d exceeds the per-request cap of %d", branches, s.cfg.MaxBranches)
	}
	if req.TrainBranches > s.cfg.MaxBranches {
		return nil, badRequest("training branch budget %d exceeds the per-request cap of %d", req.TrainBranches, s.cfg.MaxBranches)
	}
	if !req.Stream && (req.Interval > 0 || req.TopMispredicted > 0) {
		return nil, badRequest("interval and top_mispredicted require stream: true")
	}
	if req.TopMispredicted > maxVerdicts {
		return nil, badRequest("top_mispredicted %d exceeds the cap of %d", req.TopMispredicted, maxVerdicts)
	}
	if req.Interval > 0 {
		if samples := (branches + req.Interval - 1) / req.Interval; samples > uint64(s.cfg.MaxStreamSamples) {
			return nil, badRequest("interval %d over %d branches streams %d samples per cell, over the cap of %d (raise interval)",
				req.Interval, branches, samples, s.cfg.MaxStreamSamples)
		}
	}
	specs := make([]spec.Spec, len(req.Specs))
	for i, raw := range req.Specs {
		sp, err := spec.Parse(raw)
		if err != nil {
			return nil, badRequest("spec %q: %v", raw, err)
		}
		specs[i] = sp
	}

	job := &gridJob{req: req, tenant: t, branches: branches, span: parent}
	var err error
	if req.Bench != "" {
		job.snap, err = s.benchSnapshot(ctx, t, req.Bench, "testing", branches, parent)
	} else {
		job.snap, err = s.uploadSnapshot(ctx, t, req.Trace)
	}
	if err != nil {
		return nil, err
	}
	// Refuse a spec whose tables are too large for this trace before
	// training or building it.
	sites := job.snap.Sites()
	for i, sp := range specs {
		if err := sp.CheckTables(sites); err != nil {
			return nil, badRequest("spec %q: %v", req.Specs[i], err)
		}
	}

	trainBudget := req.TrainBranches
	if trainBudget == 0 {
		trainBudget = branches
	}
	job.cells = make([]gridCell, len(specs))
	for i, sp := range specs {
		td, err := s.train(ctx, t, sp, req, trainBudget, parent)
		if err != nil {
			return nil, err
		}
		job.cells[i] = gridCell{idx: i, sp: sp, td: td}
	}
	if req.Interval > 0 || req.TopMispredicted > 0 {
		job.tel = make([]*sim.Telemetry, len(job.cells))
	}
	return job, nil
}

// benchSnapshot captures (or replays) a built-in benchmark data set
// from the shared cache, attributing the hit or miss to the requesting
// tenant. The cache extends incrementally: a later request with a
// bigger budget resumes the same capture.
func (s *Server) benchSnapshot(ctx context.Context, t *tenant, name, ds string, conds uint64, parent *span.Span) (trace.Snapshot, error) {
	b, err := prog.ByName(name)
	if err != nil {
		return trace.Snapshot{}, badRequest("%v", err)
	}
	dataSet := b.Testing
	if ds == "training" {
		dataSet = b.Training
	}
	key := "bench\x00" + name + "\x00" + ds
	snap, hit, err := s.cache.CaptureTraced(ctx, key, conds, parent, func() (trace.Source, error) {
		return s.cfg.openBench(b, dataSet)
	})
	if err == nil {
		t.recordCapture(hit)
	}
	if err != nil {
		if ctx.Err() != nil {
			return trace.Snapshot{}, &httpError{status: 503, msg: "capture cancelled: " + err.Error()}
		}
		// Transient interpreter/capture failure: the cache entry has
		// been reset, so a retry re-captures cleanly.
		return trace.Snapshot{}, &httpError{status: 500, msg: "capture failed: " + err.Error()}
	}
	return snap, nil
}

// uploadSnapshot replays a previously uploaded trace, attributing the
// cache access to the requesting tenant. The capture was drained to EOF
// at upload time, so this never opens a source; an unknown key surfaces
// as 404.
func (s *Server) uploadSnapshot(ctx context.Context, t *tenant, key string) (trace.Snapshot, error) {
	if _, ok := s.uploads.Load(key); !ok {
		return trace.Snapshot{}, &httpError{status: 404, msg: errUnknownTrace.Error()}
	}
	snap, hit, err := s.cache.CaptureWithStatus(ctx, key, allConds, func() (trace.Source, error) {
		return nil, errUnknownTrace
	})
	if err == nil {
		t.recordCapture(hit)
	}
	if err != nil {
		if errors.Is(err, errUnknownTrace) {
			return trace.Snapshot{}, &httpError{status: 404, msg: err.Error()}
		}
		return trace.Snapshot{}, &httpError{status: 500, msg: "trace replay failed: " + err.Error()}
	}
	return snap, nil
}

// train runs the training pass sp requires, if any: over the
// benchmark's training data set, or over the head of the uploaded
// trace.
func (s *Server) train(ctx context.Context, t *tenant, sp spec.Spec, req GridRequest, budget uint64, parent *span.Span) (*spec.TrainingData, error) {
	if !sp.NeedsTraining() {
		return nil, nil
	}
	var snap trace.Snapshot
	var err error
	if req.Bench != "" {
		snap, err = s.benchSnapshot(ctx, t, req.Bench, "training", budget, parent)
	} else {
		snap, err = s.uploadSnapshot(ctx, t, req.Trace)
	}
	if err != nil {
		return nil, err
	}
	td, err := spec.Train(sp, &trace.LimitSource{Src: snap.Reader(), N: budget})
	if err != nil {
		return nil, &httpError{status: 500, msg: fmt.Sprintf("training %s: %v", sp, err)}
	}
	return td, nil
}

// execute runs the job's cells in tenant-bounded batches and invokes
// emit with each cell's grid index as it settles (emit errors abort the
// run — a streaming client that stopped reading). The returned cells
// are in spec order.
func (s *Server) execute(ctx context.Context, job *gridJob, emit func(idx int, c Cell) error) ([]Cell, error) {
	t := job.tenant
	nCells := len(job.cells)
	out := make([]Cell, nCells)
	s.grid.AddPlanned(nCells)
	t.grid.AddPlanned(nCells)

	batchMax := s.cfg.TenantCells
	for start := 0; start < nCells; start += batchMax {
		end := min(start+batchMax, nCells)
		batch := job.cells[start:end]

		releaseTenant, ok := t.cells.acquire(len(batch), ctx.Done())
		if !ok {
			s.failRemaining(job, out, start, ctx.Err())
			return out, ctx.Err()
		}
		releaseWork, ok := s.acquireWork(len(batch), ctx.Done())
		if !ok {
			releaseTenant()
			s.failRemaining(job, out, start, ctx.Err())
			return out, ctx.Err()
		}

		began := s.cfg.clock()
		results, errs := s.runBatch(ctx, job, batch)
		elapsed := s.cfg.clock().Sub(began)
		releaseWork()
		releaseTenant()

		for i := range batch {
			idx := start + i
			out[idx] = s.settleCell(t, batch[i], results[i], errs[i], elapsed, len(batch))
			if emit != nil {
				if err := emit(idx, out[idx]); err != nil {
					s.failRemaining(job, out, idx+1, err)
					return out, err
				}
			}
		}
		if err := ctx.Err(); err != nil {
			s.failRemaining(job, out, end, err)
			return out, err
		}
	}
	return out, nil
}

// settleCell folds one finished cell into monitors and its wire form.
func (s *Server) settleCell(t *tenant, c gridCell, res sim.Result, ce *experiments.CellError, batchDur time.Duration, batchLen int) Cell {
	cell := Cell{Spec: c.sp.String(), Attempts: 1}
	if bd, cerr := cost.EstimateSpec(c.sp); cerr == nil {
		cell.CostBits = bd.Total()
	}
	if ce != nil {
		cell.Attempts = ce.Attempts
		cell.Error = ce.Error()
		s.grid.CellsFailed(1)
		t.grid.CellsFailed(1)
		return cell
	}
	cell.Accuracy = res.Accuracy.Rate()
	cell.Predictions = res.Accuracy.Predictions
	cell.Mispredictions = res.Accuracy.Predictions - res.Accuracy.Correct
	ev := experiments.ResultEvents(res)
	cell.Events = ev
	perCell := batchDur / time.Duration(max(1, batchLen))
	s.grid.CellDone(ev)
	t.grid.CellDone(ev)
	s.grid.ObserveCells(perCell, 1)
	t.grid.ObserveCells(perCell, 1)
	return cell
}

// failRemaining marks not-yet-settled cells from idx on as failed.
func (s *Server) failRemaining(job *gridJob, out []Cell, idx int, err error) {
	if err == nil {
		err = context.Canceled
	}
	n := 0
	for i := idx; i < len(out); i++ {
		if out[i].Spec == "" {
			out[i] = Cell{Spec: job.cells[i].sp.String(), Error: err.Error(), Attempts: 1}
			n++
		}
	}
	if n > 0 {
		s.grid.CellsFailed(n)
		job.tenant.grid.CellsFailed(n)
	}
}

// acquireWork takes n global worker-pool slots at once (or aborts on
// done).
func (s *Server) acquireWork(n int, done <-chan struct{}) (func(), bool) {
	// A batch may be wider than the pool; cap, don't deadlock.
	return s.workSem.acquire(min(n, s.cfg.Workers), done)
}

// runBatch runs one batch of cells through the shared cell-failure
// ladder, each cell set up from its training data and simOptions.
func (s *Server) runBatch(ctx context.Context, job *gridJob, batch []gridCell) ([]sim.Result, []*experiments.CellError) {
	where := job.req.Bench
	if where == "" {
		where = job.req.Trace
	}
	specs := make([]string, len(batch))
	for i, c := range batch {
		specs[i] = c.sp.String()
	}
	return experiments.RunBatch(experiments.Batch{
		Bench: where,
		Specs: specs,
		Setup: func(i int, parent *span.Span) (predictor.Predictor, sim.Options, error) {
			p, err := s.cfg.buildPredictor(batch[i].sp, batch[i].td)
			return p, s.simOptions(ctx, job, batch[i], parent), err
		},
		Open:     func() (trace.Source, error) { return job.snap.Reader(), nil },
		Context:  ctx,
		Span:     job.span,
		Logger:   s.log,
		Monitors: []*experiments.Monitor{s.grid, job.tenant.grid},
	})
}

// simOptions builds one cell's simulation options, attributed under
// parent. Streaming requests get a fresh kernel telemetry sink per
// build — the sink does not cost fastpath eligibility, so sampled cells
// still replay on the kernel.
func (s *Server) simOptions(ctx context.Context, job *gridJob, c gridCell, parent *span.Span) sim.Options {
	o := sim.Options{
		ContextSwitches: c.sp.ContextSwitch,
		MaxCondBranches: job.branches,
		Context:         ctx,
		Span:            parent,
	}
	if job.tel != nil {
		sink := &sim.Telemetry{
			Interval: job.req.Interval,
			TopK:     job.req.TopMispredicted,
		}
		job.tel[c.idx] = sink
		o.Telemetry = sink
	}
	return o
}
