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

func TestMainUsageErrors(t *testing.T) {
	if code, _, _ := runMain("-definitely-not-a-flag"); code != ExitUsage {
		t.Errorf("unknown flag: exit = %d, want %d", code, ExitUsage)
	}
	code, _, stderr := runMain("-only", "bogus")
	if code != ExitUsage {
		t.Errorf("unknown analyzer: exit = %d, want %d", code, ExitUsage)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr should name the unknown analyzer, got %q", stderr)
	}
	if code, _, _ := runMain("-only", ","); code != ExitUsage {
		t.Errorf("empty -only selection: exit = %d, want %d", code, ExitUsage)
	}
	// A directory that is not a module: go list fails, which is a usage
	// error, not a finding.
	if code, _, _ := runMain("-C", t.TempDir(), "./..."); code != ExitUsage {
		t.Errorf("unloadable packages: exit = %d, want %d", code, ExitUsage)
	}
}

func TestMainListAndVersion(t *testing.T) {
	code, stdout, _ := runMain("-list")
	if code != ExitClean {
		t.Fatalf("-list: exit = %d, want %d", code, ExitClean)
	}
	for _, a := range All() {
		if !strings.Contains(stdout, a.Name) || !strings.Contains(stdout, "allow-"+a.Allow) {
			t.Errorf("-list output missing analyzer %s / its directive:\n%s", a.Name, stdout)
		}
	}
	code, stdout, _ = runMain("-version")
	if code != ExitClean || !strings.Contains(stdout, "campslint") {
		t.Errorf("-version: exit = %d, stdout = %q", code, stdout)
	}
}

func TestMainCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module scratch\n\ngo 1.22\n",
		"pkg/a.go": "package pkg\n\nfunc F() int { return 1 }\n",
	})
	code, stdout, stderr := runMain("-C", dir, "./...")
	if code != ExitClean {
		t.Fatalf("clean module: exit = %d, want %d\nstdout: %s\nstderr: %s", code, ExitClean, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module should print nothing, got %q", stdout)
	}
}

func TestMainFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"pkg/a.go": `package pkg

import "fmt"

func Dump(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`,
	})
	code, stdout, stderr := runMain("-C", dir, "./...")
	if code != ExitFindings {
		t.Fatalf("module with violation: exit = %d, want %d\nstderr: %s", code, ExitFindings, stderr)
	}
	if !strings.Contains(stdout, "[maporder]") || !strings.Contains(stdout, "a.go:7:") {
		t.Errorf("finding should be attributed to maporder at pkg/a.go:7, got:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr should summarize the findings, got %q", stderr)
	}

	// -only restricted to an analyzer that has nothing to say here exits
	// clean: selection is honored.
	code, stdout, _ = runMain("-C", dir, "-only", "tickarith", "./...")
	if code != ExitClean || stdout != "" {
		t.Errorf("-only tickarith: exit = %d, stdout = %q; want clean and empty", code, stdout)
	}
}

func TestMainPositionalAnalyzerSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"pkg/a.go": `package pkg

import "fmt"

func Dump(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`,
	})
	// Selection rides as the first positional argument; maporder excluded
	// means the violation stays silent.
	code, stdout, stderr := runMain("-C", dir, "tickarith,statsreg", "./...")
	if code != ExitClean || stdout != "" {
		t.Errorf("positional selection without maporder: exit = %d, stdout = %q, stderr = %q", code, stdout, stderr)
	}
	code, stdout, _ = runMain("-C", dir, "maporder", "./...")
	if code != ExitFindings || !strings.Contains(stdout, "[maporder]") {
		t.Errorf("positional maporder: exit = %d, stdout = %q", code, stdout)
	}
	// A positional list with an unknown name is a package pattern, not a
	// selection — go list then fails on it.
	if code, _, _ := runMain("-C", dir, "maporder,bogus", "./..."); code != ExitUsage {
		t.Errorf("mixed known/unknown positional list should fall through to go list: exit = %d", code)
	}
}

func TestMainTiming(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module scratch\n\ngo 1.22\n",
		"pkg/a.go": "package pkg\n\nfunc F() int { return 1 }\n",
	})
	code, _, stderr := runMain("-C", dir, "-timing", "./...")
	if code != ExitClean {
		t.Fatalf("-timing run: exit = %d, stderr = %s", code, stderr)
	}
	for _, want := range []string{"campslint: load", "facts+callgraph", "globalmut", "maporder"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-timing stderr missing %q:\n%s", want, stderr)
		}
	}
}

func TestMainAllowBudget(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"pkg/a.go": `package pkg

//lint:allow-noctx scratch helper, caller threads ctx
func F() int { return 1 }
`,
		".campslint-budget": "# directive-name count\nnoctx 1\n",
	})
	code, _, stderr := runMain("-C", dir, "-allow-budget", "./...")
	if code != ExitClean {
		t.Fatalf("directive within budget: exit = %d, stderr = %s", code, stderr)
	}

	// Ratchet the baseline down: the same directive now exceeds it.
	if err := os.WriteFile(filepath.Join(dir, ".campslint-budget"), []byte("noctx 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runMain("-C", dir, "-allow-budget", "./...")
	if code != ExitFindings || !strings.Contains(stderr, "allow budget exceeded") {
		t.Errorf("directive over budget: exit = %d, stderr = %q", code, stderr)
	}

	// A missing baseline file is a usage error, not silent success.
	if err := os.Remove(filepath.Join(dir, ".campslint-budget")); err != nil {
		t.Fatal(err)
	}
	if code, _, _ = runMain("-C", dir, "-allow-budget", "./..."); code != ExitUsage {
		t.Errorf("missing baseline: exit = %d, want %d", code, ExitUsage)
	}
}

// TestMainRealTree is the acceptance gate: the repository itself must be
// campslint-clean.
func TestMainRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	code, stdout, stderr := runMain("-C", filepath.Join("..", ".."), "-allow-budget", "./...")
	if code != ExitClean {
		t.Fatalf("campslint -allow-budget ./... on the repository: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitClean, stdout, stderr)
	}
}
