package repro

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
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

	jobs := make(map[string]bool)
	for _, name := range ciJobs(t) {
		jobs[name] = true
	}
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

// TestDocsNameDeclaredMembers fails when README.md or DESIGN.md quotes an
// exported member of a type the docs describe the allocator, its
// configuration and the multiplexer by — `core.Config.X`, `shm.Config.X`,
// `Arena.X`, `mpf.Selector.X` (the facade's methods) and `Selector.X`
// (core's or the facade's) — that the code does not declare: a field or
// method deleted from the code but still described in prose. The
// planted case holds the check itself.
func TestDocsNameDeclaredMembers(t *testing.T) {
	coreDir := filepath.Join("internal", "core")
	members := map[string]map[string]bool{
		"core.Config":  typeMembers(t, coreDir, "Config"),
		"shm.Config":   typeMembers(t, filepath.Join("internal", "shm"), "Config"),
		"Arena":        typeMembers(t, filepath.Join("internal", "shm"), "Arena"),
		"mpf.Selector": typeMembers(t, "mpf", "Selector"),
		"Selector":     typeMembers(t, coreDir, "Selector"),
	}
	for name := range members["mpf.Selector"] {
		members["Selector"][name] = true
	}
	t.Run("planted", func(t *testing.T) {
		text := "`mpf.Selector.Wait`, `core.Selector.Wait`, `Selector.WaitViews`, `Selector.Circuits`, " +
			"`core.Config.MaxProcesses`, `Arena.NoSuchField`, `Selector.mu`"
		got := undeclaredMembers(text, members)
		want := []string{"mpf.Selector.Wait", "Selector.Circuits", "Arena.NoSuchField"}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("undeclared members in the planted text = %q, want %q", got, want)
		}
	})
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, name := range undeclaredMembers(readDoc(t, doc), members) {
			t.Errorf("%s names %s, which the code does not declare", doc, name)
		}
	}
}

// undeclaredMembers returns the Type.Member quotes in text whose member
// the type's entry in members lacks.
func undeclaredMembers(text string, members map[string]map[string]bool) []string {
	var bad []string
	quote := regexp.MustCompile(`\b(core\.Config|shm\.Config|Arena|mpf\.Selector|Selector)\.([A-Z]\w*)`)
	for _, m := range quote.FindAllStringSubmatch(text, -1) {
		if !members[m[1]][m[2]] {
			bad = append(bad, m[1]+"."+m[2])
		}
	}
	return bad
}

// TestDocsNameDeclaredMetrics fails when README.md or DESIGN.md quotes a
// benchmark metric — a backticked `shm.arena_locks_per_msg`,
// `trace.stream_64.receive_ns` and so on — that BENCHMARK.json does not
// declare: a metric renamed or deleted in the benchmark but still read
// in prose. The planted case holds the check itself.
func TestDocsNameDeclaredMetrics(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	declared, workloads := make(map[string]bool), make(map[string]bool)
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		declared[m.Name] = true
	}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	t.Run("planted", func(t *testing.T) {
		text := "`shm.arena_waits_per_mesage`, `trace.stream_64.receive_ns`, `trace.receive.fcfs_ns`, `shm.alignedCopy`"
		got := undeclaredMetrics(text, declared, workloads)
		if len(got) != 1 || got[0] != "shm.arena_waits_per_mesage" {
			t.Errorf("undeclared metrics in the planted text = %q, want only the misspelt one", got)
		}
	})
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, name := range undeclaredMetrics(readDoc(t, doc), declared, workloads) {
			t.Errorf("%s quotes metric %s, which BENCHMARK.json does not declare", doc, name)
		}
	}
}

// undeclaredMetrics returns the backticked metric names in text that are
// not in declared. A metric name is a prefix that some declared name has
// (`shm`, `core`, …), a dot, and lower-case words joined by at least one
// underscore — Go identifiers have none, so `shm.alignedCopy` is not
// taken for one; `trace.<workload>.x` is the per-workload form of
// `trace.x`.
func undeclaredMetrics(text string, declared, workloads map[string]bool) []string {
	prefixes := make(map[string]bool)
	for name := range declared {
		if p, _, ok := strings.Cut(name, "."); ok {
			prefixes[p] = true
		}
	}
	var bad []string
	for _, m := range regexp.MustCompile("`([a-z]+)\\.([a-z0-9_.]*_[a-z0-9_.]*)`").FindAllStringSubmatch(text, -1) {
		prefix, rest := m[1], m[2]
		if !prefixes[prefix] {
			continue
		}
		if w, r, ok := strings.Cut(rest, "."); ok && prefix == "trace" && workloads[w] {
			rest = r
		}
		if !declared[prefix+"."+rest] {
			bad = append(bad, prefix+"."+m[2])
		}
	}
	return bad
}

// typeMembers returns the names of the fields and methods that the
// non-test files of package dir declare for the type named typ.
func typeMembers(t *testing.T, dir, typ string) map[string]bool {
	t.Helper()
	members := make(map[string]bool)
	for _, f := range parseDir(t, dir) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.Name == typ {
					members[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != typ {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								members[name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(members) == 0 {
		t.Fatalf("%s declares no type %s with members", dir, typ)
	}
	return members
}

// mpfOptions returns the exported With* functions of package mpf.
func mpfOptions(t *testing.T) map[string]bool {
	t.Helper()
	opts := make(map[string]bool)
	for _, name := range exportedNames(parseDir(t, "mpf")) {
		if strings.HasPrefix(name, "With") {
			opts[name] = true
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
	for _, f := range parseDir(t, filepath.Join("cmd", "mpfbench")) {
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

// TestDesignListsCIJobs fails when DESIGN.md §9, which describes the CI
// workflow one job per bullet, drifts from ci.yml: the bold leads of
// its bullets must be the workflow's job names, in the workflow's
// order. The planted case holds the check itself.
func TestDesignListsCIJobs(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		// Two jobs swapped: the leads are read in order, nested bullets
		// and bold prose are not leads, and a matrix note is outside the
		// bold.
		section := "- **build** — a;\n- **race** — b, **bold** prose;\n  - **nested** — c;\n- **unit tests** (stable) — d.\n"
		jobs := []string{"build", "unit tests", "race"}
		got := bulletLeads(section)
		if strings.Join(got, "|") != "build|race|unit tests" || slices.Equal(got, jobs) {
			t.Errorf("planted section's leads = %q, want build, race, unit tests: not the jobs %q", got, jobs)
		}
	})
	_, section, ok := strings.Cut(readDoc(t, "DESIGN.md"), "\n## §9 ")
	if !ok {
		t.Fatal("DESIGN.md has no §9")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	if got, want := bulletLeads(section), ciJobs(t); !slices.Equal(got, want) {
		t.Errorf("DESIGN.md §9's bullets lead with %q, want ci.yml's jobs %q in order", got, want)
	}
}

// bulletLeads returns the bold text that opens each top-level bullet of
// a Markdown section, in order.
func bulletLeads(section string) []string {
	var leads []string
	for _, m := range regexp.MustCompile(`(?m)^- \*\*([^*]+)\*\*`).FindAllStringSubmatch(section, -1) {
		leads = append(leads, m[1])
	}
	return leads
}

// ciJobs returns the display names of the jobs in the CI workflow, in
// order, with a matrix suffix such as " (${{ matrix.go }})" stripped.
func ciJobs(t *testing.T) []string {
	t.Helper()
	_, body, ok := strings.Cut(readDoc(t, filepath.Join(".github", "workflows", "ci.yml")), "\njobs:\n")
	if !ok {
		t.Fatal("ci.yml has no jobs")
	}
	suffix := regexp.MustCompile(`\s*\(\$\{\{[^}]*\}\}\)$`)
	var jobs []string
	for _, m := range regexp.MustCompile(`(?m)^    name: (.+)$`).FindAllStringSubmatch(body, -1) {
		jobs = append(jobs, suffix.ReplaceAllString(strings.TrimSpace(m[1]), ""))
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

// parseDir parses the non-test Go files directly in dir.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, path := range goFiles(t, dir) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
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

// TestCIRunsDeclaredTests fails when a -run pattern in ci.yml names a
// test or fuzz target that no _test.go file declares: a test deleted or
// renamed would otherwise drop out of the step that runs it without a
// sound. A name the pattern anchors with $ must be declared as written;
// an unanchored one must begin the name of a declared one, as the
// pattern then selects every test it begins. The planted case holds the
// check itself.
func TestCIRunsDeclaredTests(t *testing.T) {
	declared := declaredTests(t)
	t.Run("planted", func(t *testing.T) {
		text := "run: go test -count=20 -run 'TestHandOffRule$|TestNoSuchTest$|TestBridge' ./internal/core\n" +
			"run: go test -run=FuzzProtocolInvariants -fuzz=FuzzProtocolInvariants ./internal/core\n" +
			"run: go test -run TestNoSuchPrefix ./mpf\n"
		got := undeclaredRunNames(text, declared)
		if len(got) != 2 || got[0] != "TestNoSuchTest" || got[1] != "TestNoSuchPrefix" {
			t.Errorf("undeclared names in the planted text = %q, want TestNoSuchTest and TestNoSuchPrefix", got)
		}
	})
	for _, name := range undeclaredRunNames(readDoc(t, filepath.Join(".github", "workflows", "ci.yml")), declared) {
		t.Errorf("ci.yml runs %s, which no test file declares", name)
	}
}

// undeclaredRunNames returns the Test and Fuzz names in text's -run
// patterns that match no declared function.
func undeclaredRunNames(text string, declared map[string]bool) []string {
	var out []string
	for _, m := range regexp.MustCompile(`-run[= ]('[^']*'|"[^"]*"|\S+)`).FindAllStringSubmatch(text, -1) {
		for _, n := range regexp.MustCompile(`\b((?:Test|Fuzz)\w*)(\$?)`).FindAllStringSubmatch(m[1], -1) {
			found := declared[n[1]]
			for name := range declared {
				found = found || n[2] == "" && strings.HasPrefix(name, n[1])
			}
			if !found {
				out = append(out, n[1])
			}
		}
	}
	return out
}

// declaredTests returns the Test and Fuzz functions of every _test.go
// file in the module.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	declared := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// TestMPFExportedSet pins package mpf's exported names — its top-level
// names and the exported methods of its exported types, as Type.Method
// — to a golden list, so a name joins or leaves the public package only
// by an edit here. The planted case holds the comparison itself.
func TestMPFExportedSet(t *testing.T) {
	want := []string{
		"AttachProc", "AttachProcConn", "Broadcast", "CircuitInfo", "ErrAlreadyOpen", "ErrBadLNVC",
		"ErrBadProcess", "ErrHandshakeTimeout", "ErrLoanDone", "ErrMessageTooBig", "ErrNoCredit",
		"ErrNoMemory", "ErrNoSharedBackend", "ErrNotConnected", "ErrPeerDead", "ErrSelectorClosed",
		"ErrShutdown", "ErrTimeout", "ErrTooManyLNVCs", "Event", "FCFS", "Facility",
		"Facility.Circuit", "Facility.CircuitCount", "Facility.Core", "Facility.MaxProcesses",
		"Facility.Process", "Facility.RegistryStats", "Facility.Run", "Facility.Shutdown",
		"Facility.Stats",
		"ID", "Loan", "LoanBatch", "LockStat", "New", "Option", "ProcClient", "ProcClient.Close",
		"ProcClient.Gen", "ProcClient.Serve", "ProcClient.Served", "ProcClient.Slot",
		"ProcServer", "ProcServer.BridgeDown", "ProcServer.BridgeUp", "ProcServer.Close",
		"ProcServer.Facility", "ProcServer.FinishSlot", "ProcServer.Handshake",
		"ProcServer.ReclaimSlot", "ProcServer.RingWaitStats", "ProcServer.Segment",
		"ProcServer.SendSegmentTo", "ProcServer.Spawn", "ProcServer.SpawnEnv",
		"ProcServer.Supervise", "ProcServer.Table",
		"Process", "Process.Facility", "Process.NewSelector", "Process.OpenReceive",
		"Process.OpenSend", "Process.PID",
		"Protocol", "ReclaimReport", "RecvConn", "RecvConn.Check", "RecvConn.Close", "RecvConn.ID",
		"RecvConn.Name", "RecvConn.Protocol", "RecvConn.Receive",
		"RecvConn.ReceiveDeadline", "RecvConn.ReceiveView",
		"RecvConn.ReceiveViewDeadline", "RecvConn.TryReceive", "RecvConn.TryReceiveView",
		"ReleaseViews", "Selector", "Selector.Add", "Selector.Close", "Selector.Len",
		"Selector.Remove", "Selector.WaitViews", "Selector.WaitViewsDeadline",
		"SendConn", "SendConn.Close", "SendConn.ID", "SendConn.Loan", "SendConn.LoanBatch",
		"SendConn.Name", "SendConn.Send",
		"ServeConfig", "ServeProc", "Stats", "SuperviseConfig", "Supervisor", "Supervisor.Stop",
		"Tracer", "View", "WithBlockSize", "WithBlocksPerProcess", "WithCredit", "WithFailFastSend",
		"WithMaxLNVCs", "WithMaxProcesses", "WithTracer", "XTagAck", "XTagDone", "XTagFilled",
		"XTagLoan", "XTagView",
	}
	files := parseDir(t, "mpf")
	t.Run("planted", func(t *testing.T) {
		f, err := parser.ParseFile(token.NewFileSet(), "planted.go", "package mpf\nfunc Planted() {}\nfunc (s *SendConn) planted() {}\n", 0)
		if err != nil {
			t.Fatal(err)
		}
		added, missing := diffNames(exportedNames(append(files, f)), want)
		if len(added) != 1 || added[0] != "Planted" || len(missing) != 0 {
			t.Errorf("planted file: added %q, missing %q; want only Planted added", added, missing)
		}
	})
	got := exportedNames(files)
	if added, missing := diffNames(got, want); len(added)+len(missing) > 0 {
		t.Errorf("package mpf exports %q beyond the golden list and lacks %q from it", added, missing)
	}
}

// exportedNames returns the sorted exported top-level names of files and
// the exported methods of their exported types, as Type.Method.
func exportedNames(files []*ast.File) []string {
	var names []string
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					names = append(names, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	exported := names[:0]
	for _, n := range names {
		if ast.IsExported(n[strings.LastIndex(n, ".")+1:]) {
			exported = append(exported, n)
		}
	}
	sort.Strings(exported)
	return exported
}

// diffNames returns the names in got but not in want, and the names in
// want but not in got.
func diffNames(got, want []string) (added, missing []string) {
	in := func(list []string) map[string]bool {
		m := make(map[string]bool, len(list))
		for _, n := range list {
			m[n] = true
		}
		return m
	}
	gotSet, wantSet := in(got), in(want)
	for _, n := range got {
		if !wantSet[n] {
			added = append(added, n)
		}
	}
	for _, n := range want {
		if !gotSet[n] {
			missing = append(missing, n)
		}
	}
	return added, missing
}

// TestSizeRatchet holds the repository to its size budgets: DESIGN.md's
// line count, the size of each CHANGES.md entry from firstRatchetedPR
// on, and the code lines — non-blank, non-comment lines of non-test Go
// files — of internal/core, mpf, and internal/apps (every package under
// it) together with internal/simmpf and internal/bench. A change that
// must exceed a budget raises it here, in its own diff, and says why in
// CHANGES.md. The planted cases hold the checks themselves.
func TestSizeRatchet(t *testing.T) {
	const designLines, entryBytes, firstRatchetedPR = 1415, 1536, 48
	budgets := []struct {
		trees []string
		lines int
	}{
		{[]string{"internal/core"}, 1936},
		{[]string{"mpf"}, 986},
		{[]string{"internal/apps", "internal/simmpf", "internal/bench"}, 1809},
	}
	t.Run("planted", func(t *testing.T) {
		src := "package x\n\n// A comment.\nfunc f() {\n\t// Another.\n\treturn\n}\n"
		if got := codeLines(src); got != 4 {
			t.Errorf("planted source has %d code lines, want 4", got)
		}
		// Entries before the first ratcheted one and lines that are no
		// entry are exempt.
		changes := "PR 6: " + strings.Repeat("x", 2000) + "\nPR 7: short\n" +
			"FOUND: " + strings.Repeat("y", 2000) + "\n- PR 8: " + strings.Repeat("z", 1600) + "\n"
		if got := oversizedEntries(changes, 7, entryBytes); len(got) != 1 || got[0] != 8 {
			t.Errorf("oversized entries in the planted text = %v, want [8]", got)
		}
	})
	if n := strings.Count(readDoc(t, "DESIGN.md"), "\n"); n > designLines {
		t.Errorf("DESIGN.md has %d lines, over its budget of %d", n, designLines)
	}
	for _, pr := range oversizedEntries(readDoc(t, "CHANGES.md"), firstRatchetedPR, entryBytes) {
		t.Errorf("CHANGES.md's PR %d entry is over %d bytes", pr, entryBytes)
	}
	for _, b := range budgets {
		n := 0
		for _, root := range b.trees {
			err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				for _, path := range goFiles(t, dir) {
					n += codeLines(readDoc(t, path))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if n > b.lines {
			t.Errorf("%s: %d code lines, over the budget of %d", strings.Join(b.trees, " + "), n, b.lines)
		}
	}
}

// codeLines counts the lines of Go source that are neither blank nor
// a // comment.
func codeLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "//") {
			n++
		}
	}
	return n
}

// oversizedEntries returns the numbers of the CHANGES.md entries — lines
// that begin "PR N" — from PR first on that are longer than limit bytes.
func oversizedEntries(changes string, first, limit int) []int {
	var prs []int
	for _, m := range regexp.MustCompile(`(?m)^(?:- )?PR (\d+)\b.*$`).FindAllStringSubmatch(changes, -1) {
		if pr, _ := strconv.Atoi(m[1]); pr >= first && len(m[0]) > limit {
			prs = append(prs, pr)
		}
	}
	return prs
}
