// Command brlint runs the repository's invariant-checker suite
// (internal/lint): nine analyzers that mechanically enforce the
// determinism, no-panic, observer-nil-guard, span-nil-guard and
// cancellation-poll contracts earlier PRs established, plus the
// CFG/dataflow checkers for flat, allocation-free hot loops (hotalloc),
// no blocking under a held mutex (lockheld), join-able goroutines
// (goroleak) and never-dropped errors (errflow). It is part
// of tier-1 verification:
//
//	go run ./cmd/brlint ./...
//
// Exit status is 0 when the tree is clean, 1 when there are findings, and
// 2 on usage or load errors. With -json, findings are emitted as a JSON
// array (file/line/col/analyzer/message/suppressed) that includes the
// suppressed findings — the auditable inventory of what //lint:allow
// directives hide; the exit status still reflects only live findings.
// -only restricts the run to a comma-separated subset of analyzers.
// Suppress a finding — with a mandatory, auditable reason — using an
// inline directive on or directly above the offending line:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"twolevel/internal/buildinfo"
	"twolevel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("brlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and the contracts they enforce, then exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (including suppressed ones) instead of text")
	only := fs.String("only", "", "run only this comma-separated subset of analyzers")
	version := fs.Bool("version", false, "print build provenance and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: brlint [-list] [-json] [-only analyzer,...] [packages]\n\n"+
			"Runs the twolevel invariant-checker suite over the given package\n"+
			"patterns (default ./...). Patterns are module-relative: ./..., ./internal/sim,\n"+
			"or an import path.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Read().String())
		return 0
	}
	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	suite := lint.Analyzers
	if *only != "" {
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "brlint: unknown analyzer %q (see brlint -list)\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}
	modDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "brlint:", err)
		return 2
	}
	all, fset, err := lint.RunSuiteAll(modDir, fs.Args(), suite)
	if err != nil {
		fmt.Fprintln(stderr, "brlint:", err)
		return 2
	}
	live := 0
	for _, d := range all {
		if !d.Suppressed {
			live++
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, fset, modDir, all); err != nil {
			fmt.Fprintln(stderr, "brlint:", err)
			return 2
		}
	} else {
		for _, d := range all {
			if !d.Suppressed {
				fmt.Fprintln(stdout, lint.FormatDiagnostic(fset, d))
			}
		}
	}
	if live > 0 {
		fmt.Fprintf(stderr, "brlint: %d finding(s)\n", live)
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
