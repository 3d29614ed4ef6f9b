package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsAndSmoke execs the real binary, so flag validation in main —
// which unit tests of the simulator bypass — is what gets checked: a flag
// combination the simulator cannot run is a one-line usage error with exit
// status 2, not a goroutine trace from sim.Run, and a small run succeeds.
func TestFlagsAndSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary; skipped in short mode")
	}
	bin := filepath.Join(t.TempDir(), "fibril-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var so, se bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return so.String(), se.String(), code
	}

	for _, bad := range [][]string{
		{"-strategy", "cilkm", "-helpfirst"},
		{"-strategy", "goroutine"},
		{"-bench", "nope"},
	} {
		_, stderr, code := run(bad...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", bad, code)
		}
		if strings.Contains(stderr, "goroutine 1 [running]") {
			t.Errorf("%v: panicked instead of reporting usage:\n%s", bad, stderr)
		}
		if n := strings.Count(strings.TrimSpace(stderr), "\n"); n != 0 || !strings.HasPrefix(stderr, "fibril-sim: ") {
			t.Errorf("%v: want one \"fibril-sim: ...\" line on stderr, got:\n%s", bad, stderr)
		}
	}

	stdout, stderr, code := run("-bench", "fib", "-n", "12", "-p", "4")
	if code != 0 {
		t.Fatalf("-bench fib -n 12 -p 4: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"benchmark  fib 12", "result     fibril P=4", "speedup"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	if stdout, _, code = run("-bench", "fib", "-n", "12", "-p", "4", "-strategy", "cilkm"); code != 0 ||
		!strings.Contains(stdout, "result     cilkm P=4") {
		t.Errorf("-strategy cilkm (work-first): exit %d\n%s", code, stdout)
	}
}
