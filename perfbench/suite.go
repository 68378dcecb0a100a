package main

import (
	"fmt"
	"runtime"

	"twolevel/internal/cpu"
	"twolevel/internal/experiments"
	"twolevel/internal/prog"
	"twolevel/internal/span"
)

// suiteCold is the suite-cold workload: every experiment through
// experiments.Run with the caches reset first, at the paper-default
// budget — what a researcher regenerating the paper pays. Its inputs are
// fixed by the paper; the seed is recorded but changes nothing.
type suiteCold struct {
	golden suiteGolden
	ids    []string
}

func setupSuiteCold() (*suiteCold, error) {
	s := &suiteCold{ids: experiments.IDs()}
	if err := loadGolden("suite-cold.json", &s.golden); err != nil {
		return nil, err
	}
	if s.golden.Budget != budget {
		return nil, fmt.Errorf("golden/suite-cold.json is for budget %d, not %d", s.golden.Budget, budget)
	}
	// Assembling every benchmark image checks the programs the suite
	// will interpret before anything is timed.
	for _, b := range prog.All {
		for _, ds := range []prog.DataSet{b.Testing, b.Training} {
			if _, err := b.Build(ds); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// pass runs the whole suite cold with the grid on workers goroutines.
// Each experiment is one job; a report whose digest disagrees with the
// golden file is a failed operation.
func (s *suiteCold) pass(workers int, tr *span.Tracer, r *result) (pass, error) {
	experiments.ResetCaches()
	mon := experiments.NewMonitor()
	jobs := make([]job, len(s.ids))
	for i, id := range s.ids {
		id := id
		jobs[i] = func(parent *span.Span) (uint64, bool, error) {
			before := mon.Snapshot().Events
			rep, err := experiments.Run(id, experiments.Options{
				CondBranches: budget,
				Workers:      workers,
				Monitor:      mon,
				Span:         parent,
			})
			events := mon.Snapshot().Events - before
			if err != nil {
				r.check(false, id+": "+err.Error())
				return events, false, nil
			}
			digest, err := reportDigest(rep)
			if err != nil {
				return events, false, err
			}
			ok := digest == s.golden.Reports[id]
			r.check(ok, "report digest of "+id)
			return events, ok, nil
		}
	}
	return runPass(jobs, 1, tr)
}

func runSuiteCold(o options) (*result, error) {
	r := newResult()
	s, setupS, err := timedSetup(setupReps, setupSuiteCold)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS, "s", setupReps, "")
	if o.trace {
		return r, s.traced(r)
	}
	low, high, err := runPhases(o.duration(), func(workers int) (pass, error) {
		return s.pass(workers, nil, r)
	})
	if err != nil {
		return nil, err
	}
	setPhaseMetrics(r, low, high)
	r.set("ok_ratio", r.okRatio(), "ratio", r.attempted, "")
	setRSS(r)
	return r, nil
}

// traced is the ledger run: one untraced and one traced high pass, the
// layers read from the traced pass's span tree, then the layer probes.
func (s *suiteCold) traced(r *result) error {
	workers := runtime.NumCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := s.pass(workers, nil, r)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	setGoMetrics(r, ms0, ms1, plain.events, "workload")

	tr := span.New()
	cons := cpu.Constructions()
	tracedPass, err := s.pass(workers, tr, r)
	if err != nil {
		return err
	}
	r.set("cpu.interpreters", float64(cpu.Constructions()-cons), "count", 0, "workload")
	st := experiments.CaptureCacheStats()
	r.set("trace.cache_hit_ratio", st.HitRatio(), "ratio", int(st.Hits+st.Misses), "workload")
	r.set("trace.cache_mb", float64(st.Bytes)/1e6, "MB", st.Entries, "workload")
	ledger := readSpans(tr)
	ledger.setReplay(r, "workload")
	ledger.setExperiments(r, workers, tracedPass.wall, "workload")
	r.set("bench.trace_overhead", tracedPass.wall.Seconds()/plain.wall.Seconds()-1, "ratio", 2, "workload")

	if err := runProbes(r, probeServe); err != nil {
		return err
	}
	r.set("ok_ratio", r.okRatio(), "ratio", r.attempted, "")
	setRSS(r)
	return nil
}

// setGoMetrics records the Go runtime's allocation and GC cost of one
// untraced pass.
func setGoMetrics(r *result, before, after runtime.MemStats, events uint64, source string) {
	if events > 0 {
		r.set("go.alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B/sim-ev", 0, source)
	}
	r.set("go.gc_cycles", float64(after.NumGC-before.NumGC), "count", 0, source)
}
