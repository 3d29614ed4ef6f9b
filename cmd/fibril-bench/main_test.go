package main

import (
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

func TestBenchServeSmokeAndValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the bench binary; skipped in short mode")
	}
	path := filepath.Join(t.TempDir(), "serve.json")
	out := runCmd(t, ".", "-experiment", "serve", "-json", path)
	// All three serving modes and the latency columns must appear.
	for _, want := range []string{"light", "overload-queue", "overload-shed", "p50", "p999", "capacity"} {
		if !strings.Contains(strings.ToLower(out), want) {
			t.Errorf("serve output lacks %q:\n%s", want, out)
		}
	}
	// Round-trip: the emitted JSON must pass the saturation/latency gate.
	out = runCmd(t, ".", "-validate-serve", path)
	if !strings.Contains(out, "ok") {
		t.Errorf("validate-serve did not report ok:\n%s", out)
	}
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
