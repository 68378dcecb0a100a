package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"twolevel/internal/experiments"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// The golden files hold the expected outputs of the batch workloads,
// generated once from a tree whose results are trusted and checked in
// beside the benchmark. Every simulated statistic is deterministic, so a
// run that disagrees with them by one prediction has failed.
//
//go:embed golden/*.json
var goldenFS embed.FS

// suiteGolden holds one SHA-256 per rendered experiment report.
type suiteGolden struct {
	Budget  uint64            `json:"budget"`
	Reports map[string]string `json:"reports"`
}

// sweepGolden holds every (benchmark, pool spec) cell's outcome.
type sweepGolden struct {
	Budget uint64             `json:"budget"`
	Cells  map[string]outcome `json:"cells"`
}

func cellKey(bench, sp string) string { return bench + "|" + sp }

func loadGolden(name string, v any) error {
	data, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("golden/%s: %w", name, err)
	}
	return nil
}

// reportDigest is the SHA-256 of a report's text rendering.
func reportDigest(rep *experiments.Report) (string, error) {
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// regenGolden rewrites golden/*.json from the current tree, computing
// sweep cells one at a time on the interpretive runner so the goldens
// come from a different replay engine than the kernel the workloads
// mostly run on.
func regenGolden(w io.Writer) error {
	dir := filepath.Join("perfbench", "golden")
	sg := suiteGolden{Budget: budget, Reports: map[string]string{}}
	experiments.ResetCaches()
	for _, id := range experiments.IDs() {
		rep, err := experiments.Run(id, experiments.Options{CondBranches: budget, Workers: runtime.NumCPU()})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if sg.Reports[id], err = reportDigest(rep); err != nil {
			return err
		}
	}
	if err := writeGolden(filepath.Join(dir, "suite-cold.json"), sg); err != nil {
		return err
	}
	fmt.Fprintf(w, "suite-cold: %d report digests\n", len(sg.Reports))

	wg := sweepGolden{Budget: budget, Cells: map[string]outcome{}}
	cache := trace.NewCaptureCache()
	for _, b := range prog.All {
		test, err := capture(cache, b, b.Testing, budget, nil)
		if err != nil {
			return err
		}
		train, err := capture(cache, b, b.Training, budget, nil)
		if err != nil {
			return err
		}
		for _, ps := range specPool() {
			sp, err := spec.Parse(ps.Spec)
			if err != nil {
				return err
			}
			td, err := training(sp, train.Reader(), budget)
			if err != nil {
				return err
			}
			p, err := spec.Build(sp, td)
			if err != nil {
				return err
			}
			res, err := sim.Run(p, test.Reader(), sim.Options{
				ContextSwitches: sp.ContextSwitch,
				MaxCondBranches: budget,
				DisableFastpath: true,
			})
			if err != nil {
				return fmt.Errorf("%s on %s: %w", ps.Spec, b.Name, err)
			}
			wg.Cells[cellKey(b.Name, ps.Spec)] = outcomeOf(res)
		}
	}
	if err := writeGolden(filepath.Join(dir, "sweep-warm.json"), wg); err != nil {
		return err
	}
	fmt.Fprintf(w, "sweep-warm: %d cell outcomes\n", len(wg.Cells))
	return nil
}

func writeGolden(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
