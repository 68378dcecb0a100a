// Command perfbench is the repository benchmark. It runs one workload
// for one seed and prints every metric BENCHMARK.json names, checking
// every simulated result it measures against an independent expectation.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload sweep-warm --seed 7 --seconds 12 --trace 1
//	bash perfbench/run.sh --regen-golden         # rewrite perfbench/golden/*.json
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer ledger. The line before it is a
// report with provenance, sample counts, metric sources and any metric
// BENCHMARK.json names that the run did not produce ("absent").
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// duration is the measured span a run aims for.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// workloadFunc runs one workload and returns what it measured.
type workloadFunc func(o options) (*result, error)

var workloads = map[string]workloadFunc{
	"suite-cold": runSuiteCold,
	"sweep-warm": runSweepWarm,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: suite-cold or sweep-warm")
		seed     = fs.Uint64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measured seconds")
		traced   = fs.Int("trace", 0, "1 runs the traced ledger and prints per-layer metrics")
		regen    = fs.Bool("regen-golden", false, "rewrite perfbench/golden from the current tree and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen {
		if err := regenGolden(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := decl.EndToEnd
	if o.trace {
		want = decl.PerLayer
	}
	out, absent := finalize(res, want)
	for _, name := range absent {
		fmt.Fprintf(stderr, "perfbench: ABSENT %s: named in BENCHMARK.json but not produced by %s\n", name, o.workload)
	}
	rep := report{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Provenance: readProvenance(),
		Metrics:    res.metrics,
		Absent:     absent,
		Notes:      res.notes,
	}
	if err := writeJSONLine(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// declared is the metric contract read from BENCHMARK.json.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("reading the metric contract: %w", err)
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return d, errors.New(path + ": no metrics declared")
	}
	return d, nil
}

// metric is one measured value. Samples is how many observations the
// value summarises (0 when it is a single measurement); Source says
// which pass produced a per-layer value: the workload itself or a
// layer probe.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Source  string  `json:"source,omitempty"`
}

// result is what one workload run measured. Jobs on several workers
// check their outputs concurrently, so check holds mu; everything else
// is read and written by the workload's own goroutine.
type result struct {
	mu                sync.Mutex
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// set records a measured value. A value that could not be measured (no
// samples: NaN) is never set, so it surfaces as absent rather than as
// zero.
func (r *result) set(name string, value float64, unit string, samples int, source string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	r.metrics[name] = metric{Value: value, Unit: unit, Samples: samples, Source: source}
}

// check folds one verified operation into the attempted/failed counts.
func (r *result) check(ok bool, what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, "mismatch: "+what)
		}
	}
}

// okRatio is the share of attempted operations whose outputs checked.
func (r *result) okRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// final is the last stdout line.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalize selects the declared metrics from what the run produced. A
// declared metric the run did not produce, or produced in another unit,
// is returned in absent and left out of the line: it is never printed
// as zero.
func finalize(res *result, want []declaredMetric) (final, []string) {
	out := final{
		Correct:   res.attempted > 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	var absent []string
	for _, d := range want {
		m, ok := res.metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			absent = append(absent, d.Name)
			continue
		}
		out.Metrics[d.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	sort.Strings(absent)
	return out, absent
}

// report is the line before the result: everything needed to explain
// the numbers.
type report struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"metrics"`
	Absent     []string          `json:"absent"`
	Notes      []string          `json:"notes,omitempty"`
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
