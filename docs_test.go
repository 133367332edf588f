package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists keeps README.md, doc.go and DESIGN.md from
// drifting away from the code: every internal/ path they name (a
// package or a Go file) exists, every mpfbench flag they name is one
// cmd/mpfbench defines, every With* option README.md and doc.go name is
// one package mpf exports, every internal package (a directory directly
// under internal/ with non-test Go files) has a line in README's Layout
// section, and README's CI table has one row per job of the workflow.
func TestDocsNameWhatExists(t *testing.T) {
	options := mpfOptions(t)
	flags := mpfbenchFlags(t)
	readme := readDoc(t, "README.md")
	for _, doc := range []struct {
		name, text string
		options    bool
	}{
		{"README.md", readme, true},
		{"doc.go", readDoc(t, "doc.go"), true},
		{"DESIGN.md", readDoc(t, "DESIGN.md"), false},
	} {
		for _, opt := range regexp.MustCompile(`\bWith[A-Z]\w*`).FindAllString(doc.text, -1) {
			if doc.options && !options[opt] {
				t.Errorf("%s names mpf.%s, which package mpf does not export", doc.name, opt)
			}
		}
		for _, path := range regexp.MustCompile(`\binternal/[a-z0-9_/]*[a-z0-9](?:\.go)?`).FindAllString(doc.text, -1) {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which does not exist", doc.name, path)
			}
		}
		// A command line runs from "mpfbench" to the end of its code span,
		// clause or line.
		for _, m := range regexp.MustCompile("mpfbench([^`);,.\n]*)").FindAllStringSubmatch(doc.text, -1) {
			for _, f := range regexp.MustCompile(`(?:^|\s)--?([a-z][a-z0-9-]*)`).FindAllStringSubmatch(m[1], -1) {
				if !flags[f[1]] {
					t.Errorf("%s names mpfbench -%s, which cmd/mpfbench does not define", doc.name, f[1])
				}
			}
		}
	}

	jobs := ciJobs(t)
	rows := readmeCIRows(t, readme)
	for name := range jobs {
		if !rows[name] {
			t.Errorf("ci.yml runs job %q, which README's CI table does not list", name)
		}
	}
	for name := range rows {
		if !jobs[name] {
			t.Errorf("README's CI table lists job %q, which ci.yml does not run", name)
		}
	}

	_, layout, ok := strings.Cut(readme, "\n## Layout\n")
	if !ok {
		t.Fatal("README.md has no Layout section")
	}
	layout, _, _ = strings.Cut(layout, "\n## ")
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		pkg := "internal/" + d.Name()
		if d.IsDir() && len(goFiles(t, pkg)) > 0 && !strings.Contains(layout, "`"+pkg+"`") {
			t.Errorf("README.md's Layout section does not list %s", pkg)
		}
	}
}

// mpfOptions returns the exported With* functions of package mpf.
func mpfOptions(t *testing.T) map[string]bool {
	t.Helper()
	opts := make(map[string]bool)
	for _, path := range goFiles(t, "mpf") {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() &&
				strings.HasPrefix(fn.Name.Name, "With") {
				opts[fn.Name.Name] = true
			}
		}
	}
	if len(opts) == 0 {
		t.Fatal("package mpf exports no With* options")
	}
	return opts
}

// mpfbenchFlags returns the names of the flags cmd/mpfbench defines:
// the first argument of every flag.*("name", …) call.
func mpfbenchFlags(t *testing.T) map[string]bool {
	t.Helper()
	flags := make(map[string]bool)
	for _, path := range goFiles(t, filepath.Join("cmd", "mpfbench")) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				flags[strings.Trim(lit.Value, `"`)] = true
			}
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatal("cmd/mpfbench defines no flags")
	}
	return flags
}

// ciJobs returns the display names of the jobs in the CI workflow, with
// a matrix suffix such as " (${{ matrix.go }})" stripped.
func ciJobs(t *testing.T) map[string]bool {
	t.Helper()
	_, body, ok := strings.Cut(readDoc(t, filepath.Join(".github", "workflows", "ci.yml")), "\njobs:\n")
	if !ok {
		t.Fatal("ci.yml has no jobs")
	}
	suffix := regexp.MustCompile(`\s*\(\$\{\{[^}]*\}\}\)$`)
	jobs := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^    name: (.+)$`).FindAllStringSubmatch(body, -1) {
		jobs[suffix.ReplaceAllString(strings.TrimSpace(m[1]), "")] = true
	}
	if len(jobs) == 0 {
		t.Fatal("ci.yml names no jobs")
	}
	return jobs
}

// readmeCIRows returns the job names in the first column of README's
// table of CI jobs.
func readmeCIRows(t *testing.T, readme string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(readme, "\n## Continuous integration\n")
	if !ok {
		t.Fatal("README.md has no Continuous integration section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)`").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
	}
	if len(rows) == 0 {
		t.Fatal("README.md's Continuous integration section has no table of jobs")
	}
	return rows
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goFiles returns the non-test Go files directly in dir.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, f := range all {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}
