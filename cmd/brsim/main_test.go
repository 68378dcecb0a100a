package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"twolevel"
)

var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "brsim-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "brsim")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestSingleBenchmark(t *testing.T) {
	out, err := exec.Command(binary,
		"-scheme", "PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
		"-bench", "espresso", "-branches", "5000").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "espresso") || !strings.Contains(s, "%") {
		t.Errorf("missing accuracy row:\n%s", s)
	}
	if strings.Contains(s, "gcc") {
		t.Errorf("-bench filter ignored:\n%s", s)
	}
}

func TestTrainedScheme(t *testing.T) {
	out, err := exec.Command(binary,
		"-scheme", "Profiling", "-bench", "eqntott", "-branches", "3000").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "eqntott") {
		t.Errorf("missing row:\n%s", out)
	}
}

func TestContextSwitchFlagCounted(t *testing.T) {
	out, err := exec.Command(binary,
		"-scheme", "PAg(BHT(512,4,8-sr),1xPHT(2^8,A2),c)",
		"-bench", "gcc", "-branches", "20000").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// gcc traps heavily: the switches column must be non-zero. The row
	// is "gcc  <acc>  <misp>  <instr>  <switches>".
	fields := strings.Fields(strings.Split(string(out), "gcc")[1])
	if len(fields) < 4 || fields[3] == "0" {
		t.Errorf("expected context switches on gcc:\n%s", out)
	}
}

// writeTrace writes the first n conditional branches of bench's testing
// data set to a binary trace file in a temporary directory.
func writeTrace(t *testing.T, bench string, n uint64) string {
	t.Helper()
	src, err := twolevel.NewBenchmarkSource(bench, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := twolevel.WriteTrace(f, twolevel.LimitConditional(src, n)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceFileInput(t *testing.T) {
	trc := writeTrace(t, "tomcatv", 2000)
	out, err := exec.Command(binary,
		"-scheme", "GAg(HR(1,,10-sr),1xPHT(2^10,A2))", "-trace", trc).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "GAg") || !strings.Contains(string(out), "/2000)") {
		t.Errorf("missing result:\n%s", out)
	}
}

// TestTrainingSchemeOnTraceRefused: a trace file has no training data
// set, so a scheme that needs a training pass is refused.
func TestTrainingSchemeOnTraceRefused(t *testing.T) {
	trc := writeTrace(t, "eqntott", 1000)
	out, err := exec.Command(binary,
		"-scheme", "AlwaysTaken", "-scheme", "Profiling", "-trace", trc).CombinedOutput()
	if err == nil {
		t.Fatalf("training scheme on a trace file accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "need benchmark training data") {
		t.Errorf("refusal does not say why:\n%s", out)
	}
}

// TestOversizedIdealSpecRefused: an Ideal per-address spec gives every
// branch site of the capture its own 2^16-entry pattern table; gcc has
// 2,553 sites at 20k branches, past the pattern-entry cap, so brsim
// refuses the spec before it trains or builds anything.
func TestOversizedIdealSpecRefused(t *testing.T) {
	out, err := exec.Command(binary,
		"-scheme", "PAp(IBHT(inf,,16-sr),infxPHT(2^16,A2))",
		"-bench", "gcc", "-branches", "20000").CombinedOutput()
	if err == nil {
		t.Fatalf("oversized spec accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "2553 pattern tables of 2^16 entries exceed the cap") {
		t.Errorf("refusal is not the table check:\n%s", out)
	}
}

// TestBatchedSchemesMatchSingle: schemes replayed as one batch print the
// same rows as each scheme run alone.
func TestBatchedSchemesMatchSingle(t *testing.T) {
	schemes := []string{"Profiling", "PAg(BHT(512,4,8-sr),1xPHT(2^8,A2),c)"}
	args := []string{"-bench", "eqntott,li", "-branches", "20000"}
	run := func(schemes ...string) []string {
		t.Helper()
		a := append([]string(nil), args...)
		for _, s := range schemes {
			a = append(a, "-scheme", s)
		}
		out, err := exec.Command(binary, a...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")[1:]
	}
	batched := run(schemes...)
	if len(batched) != 4 {
		t.Fatalf("batched run printed %d rows, want 4:\n%s", len(batched), strings.Join(batched, "\n"))
	}
	for si, s := range schemes {
		single := run(s)
		for bi, row := range single {
			// A batched row carries the scheme as its second column.
			want := strings.Fields(row)
			want = append(want[:1], append([]string{s}, want[1:]...)...)
			if got := strings.Fields(batched[2*bi+si]); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s alone: %v\nin the batch: %v", s, want, got)
			}
		}
	}
}

func TestBadSchemeRejected(t *testing.T) {
	if out, err := exec.Command(binary, "-scheme", "Nope(1)").CombinedOutput(); err == nil {
		t.Fatalf("bad scheme accepted:\n%s", out)
	}
}

// TestSpanSummaryCoversPhases: -span-summary of a training scheme lists
// the capture, the training pass and the replay under the suite root,
// each once per benchmark.
func TestSpanSummaryCoversPhases(t *testing.T) {
	sum := filepath.Join(t.TempDir(), "spans.txt")
	out, err := exec.Command(binary, "-scheme", "Profiling", "-bench", "eqntott,li",
		"-branches", "5000", "-span-summary", sum).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	text, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"capture", "train", "replay"} {
		// A child of the root, indented one level, counted twice.
		if !regexp.MustCompile(`(?m)^  ` + phase + ` +2x `).Match(text) {
			t.Errorf("span summary has no %q span per benchmark under the suite root:\n%s", phase, text)
		}
	}
}
