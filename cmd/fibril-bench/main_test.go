package main

import (
	"os/exec"
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
