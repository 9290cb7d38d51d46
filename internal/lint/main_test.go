package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for end-to-end CLI runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runMain(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = Main(args, &out, &errb)
	return code, out.String(), errb.String()
}

// runIn runs the full suite over patterns in dir, as campslint does when
// started there.
func runIn(dir string, patterns ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(dir, patterns, &out, &errb)
	return code, out.String(), errb.String()
}

func TestMainUsageErrors(t *testing.T) {
	// campslint takes package patterns and -version, nothing else.
	for _, flag := range []string{"-definitely-not-a-flag", "-only", "-list", "-timing", "-C", "-allow-budget"} {
		if code, _, _ := runMain(flag); code != exitUsage {
			t.Errorf("%s: exit = %d, want %d", flag, code, exitUsage)
		}
	}
	// A directory that is not a module: go list fails, which is a usage
	// error, not a finding.
	if code, _, _ := runIn(t.TempDir(), "./..."); code != exitUsage {
		t.Errorf("unloadable packages: exit = %d, want %d", code, exitUsage)
	}
}

// TestMainListAndVersion checks that the usage text lists every analyzer
// and that -version names the tool.
func TestMainListAndVersion(t *testing.T) {
	code, _, stderr := runMain("-h")
	if code != exitUsage {
		t.Fatalf("-h: exit = %d, want %d", code, exitUsage)
	}
	for _, a := range suite() {
		if !strings.Contains(stderr, a.Name) || !strings.Contains(stderr, a.Doc) {
			t.Errorf("usage text missing analyzer %s:\n%s", a.Name, stderr)
		}
	}
	code, stdout, _ := runMain("-version")
	if code != exitClean || !strings.Contains(stdout, "campslint") {
		t.Errorf("-version: exit = %d, stdout = %q", code, stdout)
	}
}

func TestMainCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module scratch\n\ngo 1.22\n",
		"pkg/a.go": "package pkg\n\nfunc F() int { return 1 }\n",
	})
	code, stdout, stderr := runIn(dir, "./...")
	if code != exitClean {
		t.Fatalf("clean module: exit = %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module should print nothing, got %q", stdout)
	}
}

// TestMainFindings also pins that no comment silences a finding.
func TestMainFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"pkg/a.go": `package pkg

import "fmt"

func Dump(m map[string]int) {
	for k := range m {
		fmt.Println(k) //lint:allow-maporder order does not matter here
	}
}
`,
	})
	code, stdout, stderr := runIn(dir, "./...")
	if code != exitFindings {
		t.Fatalf("module with violation: exit = %d, want %d\nstderr: %s", code, exitFindings, stderr)
	}
	if !strings.Contains(stdout, "[maporder]") || !strings.Contains(stdout, "a.go:7:") {
		t.Errorf("finding should be attributed to maporder at pkg/a.go:7, got:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr should summarize the findings, got %q", stderr)
	}
}

// TestMainReportsOnlyTargetPackages: a whole-program finding is reported
// in the package whose file it names, and only when the load patterns
// match that package, not when it is loaded as a dependency.
func TestMainReportsOnlyTargetPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module camps\n\ngo 1.22\n",
		"internal/stats/stats.go": `package stats

var n int

// Bump writes package state on a runtime path.
func Bump() { n++ }
`,
		"internal/sim/sim.go": `package sim

import "camps/internal/stats"

// Run reaches the write in package stats.
func Run() { stats.Bump() }
`,
	})
	code, stdout, stderr := runIn(dir, "./...")
	if code != exitFindings || !strings.Contains(stdout, "[globalmut]") ||
		!strings.Contains(stdout, filepath.Join("internal", "stats", "stats.go")) {
		t.Fatalf("./...: exit = %d, want %d with a globalmut finding in stats.go\nstdout: %s\nstderr: %s",
			code, exitFindings, stdout, stderr)
	}
	code, stdout, stderr = runIn(dir, "./internal/sim")
	if code != exitClean || stdout != "" {
		t.Fatalf("./internal/sim: exit = %d, want %d and no findings\nstdout: %s\nstderr: %s",
			code, exitClean, stdout, stderr)
	}
}

// TestMainRealTree is the acceptance gate: the repository itself must be
// campslint-clean.
func TestMainRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	code, stdout, stderr := runIn(filepath.Join("..", ".."), "./...")
	if code != exitClean {
		t.Fatalf("campslint ./... on the repository: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitClean, stdout, stderr)
	}
}
