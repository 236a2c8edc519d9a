package fedca_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTutorialSchemeBuilds: the scheme file that docs/adding-a-scheme.md
// has the reader create in Step 2 compiles inside internal/baseline against
// the tree's fl contract. The block is laid over the package as a virtual
// file with go build -overlay, so nothing is written into the tree; a
// contract change that would leave the tutorial stale fails here.
func TestTutorialSchemeBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command")
	}
	doc, err := os.ReadFile(filepath.Join("docs", "adding-a-scheme.md"))
	if err != nil {
		t.Fatal(err)
	}
	src := stepGoBlock(t, string(doc), "## Step 2")
	if !strings.HasPrefix(src, "package baseline\n") {
		t.Fatalf("Step 2's Go block is not a file of package baseline:\n%s", src)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "fedsgd.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	virtual, err := filepath.Abs(filepath.Join("internal", "baseline", "zz_tutorial.go"))
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {virtual: file}})
	if err != nil {
		t.Fatal(err)
	}
	ovl := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ovl, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "build", "-overlay", ovl, "./internal/baseline").CombinedOutput(); err != nil {
		t.Fatalf("the tutorial's Step 2 scheme does not build in internal/baseline: %v\n%s", err, out)
	}
}

// stepGoBlock returns the first ```go block under the heading that starts
// with step, before the next heading of its level.
func stepGoBlock(t *testing.T, doc, step string) string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+step)
	if !ok {
		t.Fatalf("no heading %q", step)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, block, ok := strings.Cut(section, "\n```go\n")
	if !ok {
		t.Fatalf("no Go block under %q", step)
	}
	block, _, ok = strings.Cut(block, "\n```")
	if !ok {
		t.Fatalf("unclosed Go block under %q", step)
	}
	return block + "\n"
}
