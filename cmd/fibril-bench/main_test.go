package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd builds and runs a command package in this repo via `go run`,
// returning its combined output. Smoke tests exec the real binaries so a
// flag-parsing or table-formatting regression cannot hide behind unit
// tests that bypass main.
func runCmd(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\n%s", dir, args, err, out)
	}
	return string(out)
}

func TestBenchCountersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the bench binary; skipped in short mode")
	}
	out := runCmd(t, ".", "-experiment", "counters", "-bench", "fib")
	if !strings.Contains(strings.ToLower(out), "fork") {
		t.Errorf("counters output lacks fork counts:\n%s", out)
	}
}

// -json with an experiment that has no rows to write is a usage error,
// not a silently ignored flag.
func TestBenchJSONUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the bench binary; skipped in short mode")
	}
	path := filepath.Join(t.TempDir(), "x.json")
	for _, exp := range []string{"fig3", "all"} {
		cmd := exec.Command("go", "run", ".", "-experiment", exp, "-json", path)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		// `go run` reports the child's status as its own exit 1 and
		// prints "exit status N".
		if !errors.As(err, &ee) || !strings.Contains(string(out), "exit status 2") {
			t.Errorf("-experiment %s -json: err=%v, want exit status 2:\n%s", exp, err, out)
		}
		if !strings.Contains(string(out), "-json goes with") {
			t.Errorf("-experiment %s -json: no usage message:\n%s", exp, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-experiment %s -json wrote %s (stat err=%v)", exp, path, err)
		}
	}
}
