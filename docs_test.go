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

// TestDocsNameWhatExists keeps README.md and doc.go from drifting away
// from the code: every With* option they name is one package mpf
// exports, every internal/ path they name is a directory, and every
// internal package (a directory directly under internal/ with non-test
// Go files) has a line in README's Layout section.
func TestDocsNameWhatExists(t *testing.T) {
	options := mpfOptions(t)
	readme := readDoc(t, "README.md")
	for _, doc := range []struct{ name, text string }{
		{"README.md", readme},
		{"doc.go", readDoc(t, "doc.go")},
	} {
		for _, opt := range regexp.MustCompile(`\bWith[A-Z]\w*`).FindAllString(doc.text, -1) {
			if !options[opt] {
				t.Errorf("%s names mpf.%s, which package mpf does not export", doc.name, opt)
			}
		}
		for _, dir := range regexp.MustCompile(`\binternal/[a-z0-9/]*[a-z0-9]`).FindAllString(doc.text, -1) {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc.name, dir)
			}
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
