package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "brcost-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "brcost")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestFig8CostOrdering(t *testing.T) {
	out, err := exec.Command(binary, "-fig8").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	// All three rows present.
	for _, want := range []string{"GAg(HR(1,,18-sr)", "PAg(BHT(512,4,12-sr)", "PAp(BHT(512,4,6-sr)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestSingleScheme(t *testing.T) {
	out, err := exec.Command(binary, "-scheme", "GAg(HR(1,,12-sr),1xPHT(2^12,A2))").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "total") {
		t.Errorf("missing header:\n%s", out)
	}
}

func TestSweep(t *testing.T) {
	out, err := exec.Command(binary, "-sweep", "GAg", "-kmax", "8").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if c := strings.Count(string(out), "GAg("); c != 4 { // k = 2,4,6,8
		t.Errorf("sweep rows = %d, want 4:\n%s", c, out)
	}
}

// TestSweepPastBuildCap: costing builds nothing, so the default PAp
// sweep reaches tables over the predictor's pattern-table cap
// (512 x 2^16 at k = 16) and still prints every row.
func TestSweepPastBuildCap(t *testing.T) {
	out, err := exec.Command(binary, "-sweep", "PAp").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if c := strings.Count(string(out), "PAp("); c != 9 { // k = 2,4,...,18
		t.Errorf("sweep rows = %d, want 9:\n%s", c, out)
	}
}

func TestRejectsUncostableScheme(t *testing.T) {
	out, err := exec.Command(binary, "-scheme", "BTFN").CombinedOutput()
	if err == nil {
		t.Fatalf("BTFN accepted:\n%s", out)
	}
}
