package fedca_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
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
