package fedca_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestLibraryLinksNoNetworkStack: nothing the library or the benchmark links
// reaches net, net/http or runtime/cgo. Linking net costs every process that
// imports the library its code, its init-time data and, with cgo enabled, a
// dynamically linked C runtime, so only the introspect package (and the
// programs serving HTTP) may import it. A failure names each module package
// that imports the network stack, directly or through a standard-library
// package.
func TestLibraryLinksNoNetworkStack(t *testing.T) {
	forbidden := []string{"net", "net/http", "runtime/cgo"}
	out, err := exec.Command("go", "list", "-deps",
		"-f", "{{.ImportPath}}\t{{.Standard}}\t{{join .Imports \" \"}}\t{{join .Deps \" \"}}",
		".", "./internal/...", "./benchmark").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	type pkg struct {
		standard      bool
		imports, deps []string
	}
	pkgs := map[string]pkg{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("go list line %q: want 4 tab-separated fields", line)
		}
		pkgs[f[0]] = pkg{f[1] == "true", strings.Fields(f[2]), strings.Fields(f[3])}
		order = append(order, f[0])
	}
	// links reports the forbidden package a standard-library import brings.
	links := func(path string) string {
		if slices.Contains(forbidden, path) {
			return path
		}
		for _, f := range forbidden {
			if slices.Contains(pkgs[path].deps, f) {
				return f
			}
		}
		return ""
	}
	for _, path := range order {
		p := pkgs[path]
		if p.standard {
			continue
		}
		for _, imp := range p.imports {
			if !pkgs[imp].standard {
				continue // a module package is checked on its own line
			}
			if f := links(imp); f != "" {
				t.Errorf("%s imports %s, which links %s", path, imp, f)
			}
		}
	}
}
