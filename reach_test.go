package fedca_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// programs are the main packages whose linked symbols define what the tree
// runs: the simulator, the paper's experiments, the plotter and the
// benchmark.
var programs = []string{"./cmd/fedca-sim", "./cmd/fedca-bench", "./cmd/fedca-plot", "./benchmark"}

// unlinkedAllowed names the declarations no program links that stay anyway,
// each with the reason and the files that read it. A key is the package's
// import path, the receiver's type name for a method, and the func's name.
var unlinkedAllowed = map[string]string{
	"fedca.Federation.RunToAccuracy": "library API: README.md, example_test.go and fedca_test.go train to a target",
	"fedca.Federation.Accuracy":      "library API: example_test.go and fedca_test.go read the last evaluation",
	"fedca.Federation.Now":           "library API: example_test.go, fedca_test.go and telemetry_facade_test.go read the virtual clock",
	"fedca.Federation.Journal":       "library API: README.md and telemetry_facade_test.go read the flight recorder",
	"fedca.Federation.Events":        "library API: README.md documents the event stream",
	"fedca.Federation.Rounds":        "library API: fedca_test.go and round_alloc_test.go read the completed rounds",
	"fedca/internal/fl.Runner.Now":   "read by fedca.Federation.Now (library API above)",
	"fedca/internal/fl.Runner.GlobalFlat": "tests outside package fl read the global parameters: " +
		"internal/fl/{fl,chaos,panics}_test.go, internal/baseline/selection_test.go",
	"fedca/internal/runlog.NewWriter": "tests outside package runlog write a log into memory: " +
		"internal/runlog/fuzz_test.go, internal/soak/golden_test.go, internal/fl/telemetry_test.go",
	"fedca/internal/tensor.slab.retained": "retainedBytes calls it, the go:linkname hook that " +
		"internal/nn/demand_test.go and internal/fl/evaluate_internal_test.go read; a test file of " +
		"package tensor is not compiled into their test binaries",
}

// TestEveryDeclarationIsLinked: every func and method declared in a non-test
// file of the module is linked into at least one program, or is on
// unlinkedAllowed. A declaration no program links is code the tree carries
// that no run executes; such code goes, or moves into the test files that
// use it. Inlining is off for the build, so a function the programs call
// shows as a symbol even where the compiler would inline it. Each package's
// files come from go list, so a file is judged only where its build
// constraints compile it. An allowlist entry that is linked again, or no
// longer declared, fails too.
func TestEveryDeclarationIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the four programs")
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, programs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	linked := map[string]bool{}
	for _, prog := range programs {
		nmLinked(t, filepath.Join(bin, filepath.Base(prog)), strings.TrimPrefix(prog, "./"), linked)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{} // key → file:line
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("go list line %q: want 3 tab-separated fields", line)
		}
		path, dir, files := f[0], f[1], strings.Fields(f[2])
		for _, file := range files {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
					continue
				}
				key := path + "." + fd.Name.Name
				if fd.Recv != nil {
					key = path + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				p := fset.Position(fd.Pos())
				rel, _ := filepath.Rel(wd, p.Filename)
				declared[key] = rel + ":" + strconv.Itoa(p.Line)
			}
		}
	}

	var unlinked []string
	for key := range declared {
		if !linked[key] && unlinkedAllowed[key] == "" {
			unlinked = append(unlinked, key)
		}
	}
	sort.Strings(unlinked)
	for _, key := range unlinked {
		t.Errorf("no program links %s (%s)", key, declared[key])
	}
	for key := range unlinkedAllowed {
		switch {
		case declared[key] == "":
			t.Errorf("allowlisted %s is no longer declared: drop its entry", key)
		case linked[key]:
			t.Errorf("allowlisted %s is linked by a program: drop its entry", key)
		}
	}
}

// nmLinked adds to linked the declaration every text symbol of the binary
// belongs to: type arguments stripped, (*T) read as T, an assembly body's
// ABI suffix dropped, a closure, go or defer wrapper or method value read as
// the function it is in, and a symbol of package main read as the program's
// import path.
func nmLinked(t *testing.T, binary, mainPath string, linked map[string]bool) {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", binary).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", binary, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := nmLine.FindStringSubmatch(sc.Text())
		if m == nil || (m[1] != "T" && m[1] != "t") {
			continue
		}
		sym := stripTypeArgs(m[2])
		sym = strings.TrimSuffix(strings.TrimSuffix(sym, ".abi0"), "-fm")
		for {
			trimmed := closureSuffix.ReplaceAllString(sym, "")
			if trimmed == sym {
				break
			}
			sym = trimmed
		}
		slash := strings.LastIndexByte(sym, '/')
		dot := strings.IndexByte(sym[slash+1:], '.')
		if dot < 0 {
			continue
		}
		pkg, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
		if pkg == "main" {
			pkg = "fedca/" + mainPath
		}
		rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
		linked[pkg+"."+rest] = true
	}
}

var (
	nmLine        = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)
	closureSuffix = regexp.MustCompile(`\.(func|gowrap|deferwrap)?[0-9]+$`)
)

// stripTypeArgs removes every bracketed type-argument list, nested ones too.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// recvName is a method receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// fieldUnreadAllowed names the struct fields no non-test selector reads that
// stay anyway, each with the reason. A key is the package's import path, the
// struct's type name and the field's name.
var fieldUnreadAllowed = map[string]string{
	"fedca/internal/experiments.probeKey.Client": "read as part of a map key (probeScheme.targets, probeScheme.out)",
	"fedca/internal/fl.IterState.Budget": "benchmark/probes.go sets it on the controller states it drives; " +
		"it goes with the fields the benchmark sets (ROADMAP item 35)",
	"fedca/internal/fl.FinalState.Iterations": "benchmark/probes.go sets it on the final state it drives; " +
		"it goes with the fields the benchmark sets (ROADMAP item 35)",
	"fedca/internal/core.Curves.Round": "the anchor the curves came from: internal/core/chaos_regression_test.go " +
		"holds the stale-curve contract with it and internal/core/profiler_test.go pins it",
}

// TestEveryFieldIsRead: every struct field declared in a non-test file
// outside benchmark/ is read by a selector in some non-test file of the
// module, benchmark/ and cmd/ included, or is on fieldUnreadAllowed. A field
// that is only written carries a value nothing consumes. A selector that is
// the whole left side of = or := writes the field; any other selector reads
// it, and a selector on an instantiated generic type counts for the generic
// type's field. An embedded field, a field with a json tag (encoding/json
// reads it) and an exported field of an exported type of the root package
// (library API) count as read. Each package's files come from go list, so a
// file is judged only where its build constraints compile it; the standard
// library is type-checked from source. An allowlist entry that is read, or
// no longer declared, fails too.
func TestEveryFieldIsRead(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("go list line %q: want 3 tab-separated fields", line)
		}
		path, dir := f[0], f[1]
		for _, file := range strings.Fields(f[2]) {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			imp.files[path] = append(imp.files[path], af)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	// declared: every field of a struct type written in a package outside
	// benchmark/, keyed by the type's name path (Outer.Inner for a struct
	// type nested in a field's type), or by position for an anonymous one.
	// written: every selector that is the whole left side of = or :=.
	declared := map[*types.Var]string{}
	where := map[*types.Var]string{}
	written := map[*ast.SelectorExpr]bool{}
	for _, path := range paths {
		fenced := path == "fedca/benchmark" || strings.HasPrefix(path, "fedca/benchmark/")
		for _, af := range imp.files[path] {
			owners := map[*ast.StructType]string{}
			ast.Inspect(af, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					nameStructs(n.Type, n.Name.Name, owners)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
							written[sel] = true
						}
					}
				}
				return true
			})
			if fenced {
				continue
			}
			ast.Inspect(af, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				owner := owners[st]
				for _, fl := range st.Fields.List {
					if fl.Tag != nil && strings.Contains(fl.Tag.Value, "json:") {
						continue
					}
					for _, name := range fl.Names {
						if path == "fedca" && ast.IsExported(owner) && name.IsExported() {
							continue
						}
						key := path + "." + owner + "." + name.Name
						if owner == "" {
							key = path + "." + name.Name
						}
						v := imp.info.Defs[name].(*types.Var)
						p := fset.Position(name.Pos())
						rel, _ := filepath.Rel(wd, p.Filename)
						declared[v], where[v] = key, rel+":"+strconv.Itoa(p.Line)
					}
				}
				return true
			})
		}
	}
	read := map[*types.Var]bool{}
	for sel, s := range imp.info.Selections {
		if s.Kind() == types.FieldVal && !written[sel] {
			read[s.Obj().(*types.Var).Origin()] = true
		}
	}

	var fails []string
	keys := map[string]bool{}
	for v, key := range declared {
		keys[key] = true
		switch allowed := fieldUnreadAllowed[key] != ""; {
		case !read[v] && !allowed:
			fails = append(fails, "no non-test selector reads "+key+" ("+where[v]+")")
		case read[v] && allowed:
			fails = append(fails, "allowlisted field "+key+" is read by a selector: drop its entry")
		}
	}
	for key := range fieldUnreadAllowed {
		if !keys[key] {
			fails = append(fails, "allowlisted field "+key+" is no longer declared: drop its entry")
		}
	}
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// moduleImporter type-checks the module's packages from the files go list
// names, each once and into one shared Info, and the standard library from
// source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// nameStructs names every struct type literal within a declared type's
// expression: the type's name, followed by the field names that lead down to
// a nested struct.
func nameStructs(e ast.Expr, name string, owners map[*ast.StructType]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		owners[st] = name
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				nameStructs(f.Type, name+"."+id.Name, owners)
			}
		}
		return false
	})
}
