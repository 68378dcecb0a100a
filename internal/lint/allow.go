package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strings"
)

// allowPrefix introduces a suppression directive:
//
//	//lint:allow <analyzer> <reason>
//
// A directive that shares a line with code suppresses that line's
// findings; a directive alone on a line suppresses the next line's
// (and both forms cover the directive's own line). The reason is
// mandatory so every suppression is auditable with `grep -rn lint:allow`.
const allowPrefix = "//lint:allow"

// allowSet records which (analyzer, file, line) triples are suppressed.
type allowSet struct {
	lines map[allowKey]bool
}

type allowKey struct {
	analyzer string
	file     string
	line     int
}

func (s *allowSet) covers(analyzer, file string, line int) bool {
	return s != nil && s.lines[allowKey{analyzer, file, line}]
}

// collectAllowDirectives scans every comment in files for //lint:allow
// directives. Malformed directives (missing analyzer or reason, or naming
// an analyzer that is neither registered nor in suite) are returned as
// diagnostics so the suppression surface itself stays under review. A
// run restricted to a subset of Analyzers still knows the others' names.
func collectAllowDirectives(fset *token.FileSet, files []*ast.File, suite []*Analyzer) (*allowSet, []Diagnostic) {
	set := &allowSet{lines: make(map[allowKey]bool)}
	var bad []Diagnostic
	known := func(name string) bool {
		if ByName(name) != nil {
			return true
		}
		for _, a := range suite {
			if a.Name == name {
				return true
			}
		}
		return false
	}
	sources := make(map[string][]string) // filename -> lines, loaded lazily
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  "lint:allow directive needs an analyzer name and a reason",
					})
					continue
				}
				analyzer := fields[0]
				if !known(analyzer) {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  fmt.Sprintf("lint:allow names unknown analyzer %q", analyzer),
					})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  fmt.Sprintf("lint:allow %s needs a reason (suppressions must be auditable)", analyzer),
					})
					continue
				}
				set.lines[allowKey{analyzer, pos.Filename, pos.Line}] = true
				if standalone(sources, pos.Filename, pos.Line, pos.Column) {
					set.lines[allowKey{analyzer, pos.Filename, pos.Line + 1}] = true
				}
			}
		}
	}
	return set, bad
}

// standalone reports whether only whitespace precedes column col on the
// given 1-based source line, i.e. the directive does not trail code.
func standalone(sources map[string][]string, filename string, line, col int) bool {
	lines, ok := sources[filename]
	if !ok {
		data, err := os.ReadFile(filename)
		if err != nil {
			sources[filename] = nil
			return false
		}
		lines = strings.Split(string(data), "\n")
		sources[filename] = lines
	}
	if line < 1 || line > len(lines) || col < 1 {
		return false
	}
	prefix := lines[line-1]
	if col-1 < len(prefix) {
		prefix = prefix[:col-1]
	}
	return strings.TrimSpace(prefix) == ""
}

// fileOf returns the *ast.File in files containing pos, or nil.
func fileOf(fset *token.FileSet, files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
