// Command brexp regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	brexp -exp fig11                 # one experiment
//	brexp -exp all                   # every table and figure
//	brexp -exp fig5 -branches 500000 # higher-fidelity run
//	brexp -exp fig9 -bench gcc,li    # restrict the benchmark set
//	brexp -exp fig11 -json           # machine-readable reports
//	brexp -exp table1 -metrics out.json   # per-run telemetry document
//	brexp -exp fig5 -cpuprofile cpu.pprof # profile the run
//	brexp -exp fig9 -j 4             # bound the worker pool
//	brexp -exp all -trace-reuse=false # force live interpreter runs
//	brexp -list                      # show experiment IDs
//	brexp -version                   # build provenance
//
// Observability (see EXPERIMENTS.md, "Forensics & live monitoring"):
//
//	brexp -exp fig5 -forensics forensics.json   # mispredict post-mortems
//	brexp -exp all -listen :8080                # /metrics, /progress, /debug/pprof, /spans
//	brexp -exp all -log-format json -log-level debug  # structured cell logs
//	brexp -exp fig6 -trace-out trace.json       # chrome://tracing span timeline
//	brexp -exp fig6 -span-summary -             # phase-latency tree on stderr
//
// With both -listen and -metrics set, the final /metrics scrape is saved
// next to the metrics document as <metrics>.prom; its counters agree
// exactly with the document's monitor section.
//
// Fault tolerance (see EXPERIMENTS.md, "Failure semantics"):
//
//	brexp -exp all -timeout 10m       # bound the whole run
//	brexp -exp all -keep-going        # partial tables, failed cells as "-"
//	brexp -exp all -resume run.ckpt   # checkpoint cells; re-run to resume
//
// Ctrl-C (SIGINT) or SIGTERM cancels the run promptly; with -resume the
// completed cells are already checkpointed and a re-run picks up where
// the cancelled one stopped. brexp exits non-zero whenever any cell
// failed, even when -keep-going produced partial tables.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"twolevel"
	"twolevel/internal/profile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "brexp:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		exp        = flag.String("exp", "all", "experiment ID (table1..table3, fig4..fig11) or 'all'")
		branches   = flag.Uint64("branches", 0, "conditional branches per benchmark (0 = default)")
		train      = flag.Uint64("train", 0, "training-pass branch budget (0 = same as -branches)")
		benchCSV   = flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		markdown   = flag.Bool("md", false, "emit GitHub-flavoured markdown tables")
		jsonOut    = flag.Bool("json", false, "emit reports as a JSON array instead of text")
		metrics    = flag.String("metrics", "", "write a per-run telemetry document (metrics.json) to this file")
		hotK       = flag.Int("hot", 10, "top-K hot branches per run in the metrics document")
		interval   = flag.Uint64("interval", 0, "accuracy sampling interval in the metrics document (0 = budget/20)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file")
		workersN   = flag.Int("j", 0, "worker-pool size for every experiment's per-benchmark work (0 = GOMAXPROCS)")
		traceReuse = flag.Bool("trace-reuse", true, "capture each benchmark trace once and replay it (false = a live interpreter per replay pass)")
		timeout    = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		keepGoing  = flag.Bool("keep-going", false, "on cell failure, finish the rest and print partial tables (failed cells as \"-\"); still exits non-zero")
		resume     = flag.String("resume", "", "checkpoint manifest path: completed cells are recorded there and restored on re-run")
		forensics  = flag.String("forensics", "", "write a mispredict-forensics document (forensics.json) to this file")
		forensicsK = flag.Int("forensics-top", 8, "top-K hard-to-predict branches per run in the forensics document")
		listen     = flag.String("listen", "", "serve live monitoring on this address while the run executes (/metrics, /progress, /debug/pprof, /spans)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) of the run's spans to this file")
		spanSum    = flag.String("span-summary", "", "write the aggregated span-latency summary tree to this file (\"-\" = stderr)")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		version    = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("brexp", twolevel.ReadBuildInfo())
		return nil
	}
	log, err := twolevel.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, id := range twolevel.ExperimentIDs() {
			fmt.Println(id)
		}
		return nil
	}

	stopCPU, err := profile.StartCPU(*cpuProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopCPU()) }()

	opts := twolevel.ExperimentOptions{
		CondBranches:      *branches,
		TrainBranches:     *train,
		Workers:           *workersN,
		DisableTraceCache: !*traceReuse,
		Context:           ctx,
		KeepGoing:         *keepGoing,
		Logger:            log,
	}

	// -trace-out / -span-summary attach a span tracer to the whole run;
	// every phase (capture, train, replay, forensics, report) lands on a
	// timed span. Absent, opts.Span stays nil and the hot paths pay
	// nothing for the instrumentation.
	var tracer *twolevel.SpanTracer
	var rootSpan *twolevel.Span
	if *traceOut != "" || *spanSum != "" {
		tracer = twolevel.NewSpanTracer()
		rootSpan = tracer.Root("suite")
		opts.Span = rootSpan
	}
	// -listen serves the live monitoring endpoints for the whole run; the
	// monitor's final snapshot lands in the metrics document so the last
	// scrape and metrics.json agree.
	var monitor *twolevel.ExperimentMonitor
	var monitorAddr string
	if *listen != "" {
		monitor = twolevel.NewExperimentMonitor()
		opts.Monitor = monitor
		if tracer != nil {
			monitor.AttachTracer(tracer)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		monitorAddr = ln.Addr().String()
		srv := &http.Server{Handler: monitor.Handler()}
		go srv.Serve(ln)
		// Drain gracefully rather than srv.Close(): a scraper mid-response
		// when the run ends (or SIGINT/SIGTERM cancels ctx) gets its bytes
		// before the listener dies. Shutdown is bounded so a stuck client
		// cannot hold the process; Close is the hard fallback.
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(shCtx); err != nil {
				srv.Close()
			}
		}()
		log.Info("monitoring", "addr", monitorAddr)
	}
	if *resume != "" {
		ck, err := twolevel.OpenExperimentCheckpoint(*resume)
		if err != nil {
			return err
		}
		if n := ck.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "brexp: resuming from %s (%d completed cells)\n", *resume, n)
		}
		opts.Checkpoint = ck
		defer func() {
			if err := ck.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "brexp:", err)
			}
		}()
	}
	if *benchCSV != "" {
		for _, name := range strings.Split(*benchCSV, ",") {
			b, err := twolevel.BenchmarkByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}
	if *metrics != "" || *forensics != "" {
		tel := &twolevel.ExperimentTelemetry{}
		if *metrics != "" {
			iv := *interval
			if iv == 0 {
				budget := *branches
				if budget == 0 {
					budget = twolevel.DefaultExperimentBranches
				}
				if iv = budget / 20; iv == 0 {
					iv = 1
				}
			}
			tel.HotK = *hotK
			tel.Interval = iv
		}
		if *forensics != "" {
			tel.ForensicsTopK = *forensicsK
		}
		opts.Telemetry = tel
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = twolevel.ExperimentIDs()
	}

	var reports []*twolevel.Report
	var failures []error
	for _, id := range ids {
		r, err := twolevel.RunExperiment(id, opts)
		if err != nil {
			// Under -keep-going a failed experiment still yields a
			// partial report (failed cells render "-"); print what
			// completed and keep the failure for the exit status.
			if !*keepGoing || r == nil {
				return err
			}
			failures = append(failures, fmt.Errorf("%s: %w", id, err))
		}
		if r != nil {
			reports = append(reports, r)
		}
	}
	rootSpan.End()
	if err := tracer.WriteFiles(*traceOut, *spanSum); err != nil {
		return err
	}

	switch {
	case *jsonOut:
		docs := make([]*twolevel.ReportJSON, len(reports))
		for i, r := range reports {
			docs[i] = r.JSON()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			return err
		}
	default:
		for _, r := range reports {
			write := r.WriteText
			if *markdown {
				write = r.WriteMarkdown
			}
			if err := write(os.Stdout); err != nil {
				return err
			}
		}
	}

	if *metrics != "" {
		doc := opts.Telemetry.Document(reports...)
		if monitor != nil {
			snap := monitor.Snapshot()
			doc.Monitor = &snap
		}
		f, err := os.Create(*metrics)
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
		// With the monitor serving, save the final /metrics scrape next to
		// the document; the run is over, so its counters must equal the
		// document's monitor section (the CI smoke check diffs the two).
		if monitor != nil {
			if err := saveScrape("http://"+monitorAddr+"/metrics", *metrics+".prom"); err != nil {
				return err
			}
		}
	}
	if *forensics != "" {
		f, err := os.Create(*forensics)
		if err != nil {
			return err
		}
		if err := opts.Telemetry.ForensicsDocument().Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Debug("forensics written", "path", *forensics, "runs", len(opts.Telemetry.ForensicsRuns()))
	}

	if err := profile.WriteHeap(*memProf); err != nil {
		return err
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "brexp: %d experiment(s) had failed cells (tables show \"-\"):\n", len(failures))
		for _, err := range failures {
			fmt.Fprintln(os.Stderr, "  ", err)
		}
		return fmt.Errorf("%d of %d experiments incomplete", len(failures), len(ids))
	}
	return nil
}

// saveScrape GETs url and writes the body to path — the final /metrics
// scrape preserved beside metrics.json.
func saveScrape(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
