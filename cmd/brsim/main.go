// Command brsim runs branch predictor configurations over one or more
// benchmarks and reports accuracy.
//
// Each benchmark's testing data (or the -trace file) is captured once, up
// to the -branches budget. A scheme whose pattern tables that capture
// would oversize is refused before anything is trained or built; the
// training-based schemes train on one capture of the benchmark's
// training data; then every scheme replays the capture in one
// experiments.RunBatch pass, the cell path brexp and brserve take too.
//
// Usage:
//
//	brsim -scheme 'PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))'
//	brsim -scheme 'GAg(HR(1,,18-sr),1xPHT(2^18,A2),c)' -bench gcc -branches 1000000
//	brsim -scheme Profiling -bench li            # trains on li's training set
//	brsim -scheme 'PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))' -pipeline 8
//	brsim -scheme GAg'(HR(1,,8-sr),1xPHT(2^8,A2))' -scheme AlwaysTaken
//	                                             # batched: both replay one capture
//	brsim -scheme AlwaysTaken -trace trace.bin   # simulate from a trace file
//	brsim -bench gcc -hot 10                     # worst-predicted branches
//	brsim -bench gcc -explain 0x1a2c             # why does this branch mispredict?
//	brsim -bench gcc -metrics run.json -interval 5000
//	brsim -bench gcc -trace-out trace.json       # chrome://tracing span timeline
//	brsim -bench gcc -span-summary -             # phase-latency tree on stderr
//	brsim -j 4                                   # run benchmarks in parallel
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"twolevel"
	"twolevel/internal/experiments"
	"twolevel/internal/profile"
	"twolevel/internal/spec"
)

const defaultScheme = "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))"

// schemeList accumulates repeated -scheme flags.
type schemeList []string

func (s *schemeList) String() string { return strings.Join(*s, ",") }
func (s *schemeList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "brsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var schemes schemeList
	flag.Var(&schemes, "scheme", "predictor specification (repeatable: all schemes replay one shared pass per benchmark; default "+defaultScheme+")")
	var (
		benchCSV  = flag.String("bench", "", "comma-separated benchmarks (default: all nine)")
		branches  = flag.Uint64("branches", 100_000, "conditional branches per benchmark")
		trainN    = flag.Uint64("train", 0, "training branches for GSg/PSg/Profiling (0 = same as -branches)")
		pipeline  = flag.Int("pipeline", 0, "pipeline depth (0 = resolve immediately)")
		traceFile = flag.String("trace", "", "simulate a binary trace file instead of benchmarks")
		hotK      = flag.Int("hot", 0, "print the top-K static branches by mispredictions per run")
		interval  = flag.Uint64("interval", 0, "sample accuracy every N resolved branches (metrics file only)")
		metrics   = flag.String("metrics", "", "write per-run telemetry as JSON to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file")
		workersN  = flag.Int("j", 0, "benchmarks simulated in parallel (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		explainPC = flag.String("explain", "", "diagnose why this branch PC (hex or decimal) mispredicts: collect a forensics report on each run and print a post-mortem")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) of the run's spans to this file")
		spanSum   = flag.String("span-summary", "", "write the aggregated span-latency summary tree to this file (\"-\" = stderr)")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		version   = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("brsim", twolevel.ReadBuildInfo())
		return nil
	}
	log, err := twolevel.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	var explain uint32
	if *explainPC != "" {
		pc, err := strconv.ParseUint(*explainPC, 0, 32)
		if err != nil {
			return fmt.Errorf("-explain: %w", err)
		}
		explain = uint32(pc)
	}
	if *branches == 0 && *traceFile == "" {
		return fmt.Errorf("-branches must be positive: benchmark sources never end")
	}

	// Ctrl-C / SIGTERM (and -timeout) cancel every simulation promptly;
	// the simulator polls the context off the hot path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if len(schemes) == 0 {
		schemes = schemeList{defaultScheme}
	}
	sps := make([]twolevel.Spec, len(schemes))
	for i, s := range schemes {
		sp, err := twolevel.ParseSpec(s)
		if err != nil {
			return err
		}
		sps[i] = sp
	}
	if *trainN == 0 {
		*trainN = *branches
	}

	stopCPU, err := profile.StartCPU(*cpuProf)
	if err != nil {
		return err
	}
	defer stopCPU()

	// -trace-out / -span-summary attach a span tracer; each batched replay
	// pass lands on one "replay" span under the suite root. Absent, the
	// Span option stays nil and the replay loop pays nothing.
	var tracer *twolevel.SpanTracer
	var rootSpan *twolevel.Span
	if *traceOut != "" || *spanSum != "" {
		tracer = twolevel.NewSpanTracer()
		rootSpan = tracer.Root("suite")
	}

	// schemeOut is one (scheme, source) run's harvest; done folds it into
	// the metrics document and prints the hot table and explanation.
	type schemeOut struct {
		res   twolevel.SimResult
		stats twolevel.RunMetrics
		sink  *twolevel.SimTelemetry // what -hot, -interval and -explain ask for
	}

	var doc twolevel.MetricsDocument
	doc.Version = twolevel.ReadBuildInfo()
	done := func(sp twolevel.Spec, name string, out schemeOut) {
		sink := out.sink
		if *metrics != "" {
			rm := twolevel.ExperimentRunMetrics{
				Spec:      sp.String(),
				Benchmark: name,
				Accuracy:  out.res.Accuracy.Rate(),
				Stats:     out.stats,
			}
			if len(schemes) > 1 {
				rm.Batched = true
				rm.BatchSize = len(schemes)
			}
			rm.HotBranches = sink.HotBranches()
			rm.Intervals, rm.Switches = sink.Samples, sink.Switches
			doc.Runs = append(doc.Runs, rm)
		}
		if *hotK > 0 {
			printHot(name, out.res, sink)
		}
		if sink.Forensics != nil {
			printExplanation(sp.String(), name, explain, sink.Forensics)
		}
		log.Debug("run done", "scheme", sp.String(), "bench", name,
			"accuracy", out.res.Accuracy.Rate(), "instructions", out.res.Instructions)
	}

	// runCells measures every scheme on one capture of test, the cell
	// path brexp and brserve share: refuse a scheme whose tables the
	// capture would oversize, train the schemes that need it over
	// openTrain's first -train conditional branches (nil for a trace
	// file, which has no training data), then replay all of them in one
	// experiments.RunBatch pass over the capture.
	runCells := func(where string, test twolevel.Source, openTrain func() (twolevel.Source, error)) ([]schemeOut, error) {
		if *branches > 0 {
			test = twolevel.LimitConditional(test, *branches)
		}
		snap, err := twolevel.PackTrace(test)
		if err != nil {
			return nil, err
		}
		for i, sp := range sps {
			if err := sp.CheckTables(snap.Sites()); err != nil {
				return nil, fmt.Errorf("scheme %s: %w", schemes[i], err)
			}
		}
		tds := make([]*spec.TrainingData, len(sps))
		var train twolevel.TraceSnapshot
		for i, sp := range sps {
			if !sp.NeedsTraining() {
				continue
			}
			if openTrain == nil {
				return nil, fmt.Errorf("training-based schemes need benchmark training data, not a raw trace")
			}
			if train.Len() == 0 {
				src, err := openTrain()
				if err != nil {
					return nil, err
				}
				if train, err = twolevel.PackTrace(twolevel.LimitConditional(src, *trainN)); err != nil {
					return nil, err
				}
			}
			if tds[i], err = spec.Train(sp, train.Reader()); err != nil {
				return nil, err
			}
		}

		outs := make([]schemeOut, len(sps))
		preds := make([]twolevel.Predictor, len(sps))
		names := make([]string, len(sps))
		for i, sp := range sps {
			names[i] = sp.String()
		}
		var from experiments.CostStamp
		_, errs := experiments.RunBatch(experiments.Batch{
			Bench: where,
			Specs: names,
			Setup: func(i int, parent *twolevel.Span) (twolevel.Predictor, twolevel.SimOptions, error) {
				// A fresh sink per setup: a cell run alone after its batch
				// failed never mixes in the failed pass's samples.
				sink := &twolevel.SimTelemetry{Interval: *interval, TopK: max(*hotK, 0)}
				if *explainPC != "" {
					sink.Forensics = twolevel.NewForensics(twolevel.ForensicsConfig{Budget: *branches})
				}
				outs[i].sink = sink
				var err error
				preds[i], err = spec.Build(sps[i], tds[i])
				return preds[i], twolevel.SimOptions{
					ContextSwitches: sps[i].ContextSwitch,
					MaxCondBranches: *branches,
					PipelineDepth:   *pipeline,
					Context:         ctx,
					Span:            parent,
					Telemetry:       sink,
				}, err
			},
			Open: func() (twolevel.Source, error) {
				// Stats start once every cell of the pass is built.
				from = experiments.ReadCost()
				return snap.Reader(), nil
			},
			Done: func(_ int, cells []int, res []twolevel.SimResult, _ time.Duration) {
				to := experiments.ReadCost()
				for k, i := range cells {
					outs[i].res = res[k]
					outs[i].stats = experiments.RunStats(res[k], preds[i], from, to)
				}
			},
			Context: ctx,
			Span:    rootSpan,
			Logger:  log,
		})
		for _, ce := range errs {
			if ce != nil {
				return nil, ce
			}
		}
		return outs, nil
	}

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err := twolevel.OpenTrace(f)
		if err != nil {
			return err
		}
		outs, err := runCells(*traceFile, src, nil)
		if err != nil {
			return err
		}
		for i, out := range outs {
			fmt.Printf("%s on %s: %s\n", sps[i].String(), *traceFile, out.res.Accuracy)
			done(sps[i], *traceFile, out)
		}
		return finish(rootSpan, tracer, *traceOut, *spanSum, *metrics, *memProf, &doc)
	}

	benchmarks := twolevel.Benchmarks()
	if *benchCSV != "" {
		benchmarks = benchmarks[:0:0]
		for _, name := range strings.Split(*benchCSV, ",") {
			b, err := twolevel.BenchmarkByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			benchmarks = append(benchmarks, b)
		}
	}

	// Simulate the benchmarks over a bounded worker pool, keeping the
	// output in benchmark order.
	type benchOut struct {
		outs []schemeOut
		err  error
	}
	results := make([]benchOut, len(benchmarks))
	workers := *workersN
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(benchmarks))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				b := benchmarks[i]
				src, err := b.NewSource(b.Testing)
				if err != nil {
					results[i] = benchOut{err: err}
					continue
				}
				outs, err := runCells(b.Name, src, func() (twolevel.Source, error) {
					return b.NewSource(b.Training)
				})
				results[i] = benchOut{outs: outs, err: err}
			}
		}()
	}
	for i := range benchmarks {
		work <- i
	}
	close(work)
	wg.Wait()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if len(schemes) > 1 {
		fmt.Fprintf(tw, "benchmark\tscheme\taccuracy\tmispredicts\tinstructions\tswitches\n")
	} else {
		fmt.Fprintf(tw, "benchmark\taccuracy\tmispredicts\tinstructions\tswitches\n")
	}
	for i, b := range benchmarks {
		if results[i].err != nil {
			return fmt.Errorf("%s: %w", b.Name, results[i].err)
		}
		for si, out := range results[i].outs {
			if len(schemes) > 1 {
				fmt.Fprintf(tw, "%s\t%s\t%.2f%%\t%d\t%d\t%d\n",
					b.Name, sps[si].String(), 100*out.res.Accuracy.Rate(),
					out.res.Accuracy.Predictions-out.res.Accuracy.Correct,
					out.res.Instructions, out.res.ContextSwitches)
			} else {
				fmt.Fprintf(tw, "%s\t%.2f%%\t%d\t%d\t%d\n",
					b.Name, 100*out.res.Accuracy.Rate(),
					out.res.Accuracy.Predictions-out.res.Accuracy.Correct,
					out.res.Instructions, out.res.ContextSwitches)
			}
			done(sps[si], b.Name, out)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return finish(rootSpan, tracer, *traceOut, *spanSum, *metrics, *memProf, &doc)
}

// printExplanation renders the -explain post-mortem for one run: the
// branch's forensic profile diagnosed into a verdict with evidence.
func printExplanation(scheme, name string, pc uint32, fo *twolevel.Forensics) {
	fmt.Printf("explain %s on %s:\n", scheme, name)
	p, ok := fo.Lookup(pc)
	if !ok {
		fmt.Printf("branch %#x never resolved in this run\n", pc)
		return
	}
	fmt.Println(twolevel.ExplainBranch(p))
}

// printHot renders one run's hot-branch table from its telemetry sink.
func printHot(name string, res twolevel.SimResult, sink *twolevel.SimTelemetry) {
	rep := sink.HotBranches()
	if len(rep) == 0 {
		return
	}
	fmt.Printf("hot branches: %s (%d mispredictions over %d static branches)\n",
		name, res.Accuracy.Predictions-res.Accuracy.Correct, sink.StaticBranches)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  pc\tmispredicts\texecutions\ttaken-rate\tmiss-share\n")
	for _, h := range rep {
		fmt.Fprintf(tw, "  %#08x\t%d\t%d\t%.2f%%\t%.2f%%\n",
			h.PC, h.Mispredicts, h.Executions, 100*h.TakenRate, 100*h.MissShare)
	}
	tw.Flush()
}

// finish closes the root span and writes the span exports, the metrics
// document and the heap profile that were asked for.
func finish(root *twolevel.Span, tracer *twolevel.SpanTracer, traceOut, spanSum, metrics, memProf string, doc *twolevel.MetricsDocument) error {
	root.End()
	if err := tracer.WriteFiles(traceOut, spanSum); err != nil {
		return err
	}
	if metrics != "" {
		f, err := os.Create(metrics)
		if err != nil {
			return err
		}
		if err := doc.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return profile.WriteHeap(memProf)
}
