package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// buildCLI builds the hybridmimo binary into a test temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hybridmimo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestReadsFlagRejectsNonPositive(t *testing.T) {
	bin := buildCLI(t)
	run := func(reads string) error {
		return exec.Command(bin, "-users", "3", "-mod", "qpsk", "-solver", "gs+ra", "-reads", reads).Run()
	}
	if err := run("3"); err != nil {
		t.Fatalf("-reads 3: %v", err)
	}
	for _, bad := range []string{"0", "-5"} {
		err := run(bad)
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("-reads %s: exit %v, want status 1", bad, err)
		}
	}
}

// TestSplitSolversReadsMonotone: the solvers that split -reads across
// rounds or blocks never run more reads for a smaller -reads.
func TestSplitSolversReadsMonotone(t *testing.T) {
	bin := buildCLI(t)
	readsRun := regexp.MustCompile(`\((\d+) reads ×`)
	ran := func(solver, reads string) int {
		out, err := exec.Command(bin, "-users", "3", "-mod", "qpsk", "-solver", solver, "-reads", reads).Output()
		if err != nil {
			t.Fatalf("-solver %s -reads %s: %v", solver, reads, err)
		}
		m := readsRun.FindSubmatch(out)
		if m == nil {
			t.Fatalf("-solver %s -reads %s: no read count in\n%s", solver, reads, out)
		}
		n, _ := strconv.Atoi(string(m[1]))
		return n
	}
	for _, solver := range []string{"co", "decomp", "persist"} {
		if small, large := ran(solver, "2"), ran(solver, "30"); small > large {
			t.Errorf("-solver %s: -reads 2 ran %d reads, -reads 30 ran %d", solver, small, large)
		}
	}
}
