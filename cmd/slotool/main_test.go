package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSlotool compiles the command into a temporary directory.
func buildSlotool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "slotool")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// slotool runs the binary on the committed trace fixture with extra
// flags and returns its stdout and whether it exited cleanly.
func slotool(t *testing.T, bin string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-trace", "../../internal/slo/testdata/trace_small.jsonl", "-quiet"}, args...)...)
	out, err := cmd.Output()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), err == nil
}

func TestTopSlowFlag(t *testing.T) {
	bin := buildSlotool(t)
	out, ok := slotool(t, bin)
	if !ok || !strings.Contains(out, "== top 10 slow frames") {
		t.Fatalf("default run: ok=%v, no top-10 table in\n%s", ok, out)
	}
	out, ok = slotool(t, bin, "-top", "0")
	if !ok || strings.Contains(out, "slow frames") {
		t.Fatalf("-top 0: ok=%v, want no slow-frame table in\n%s", ok, out)
	}
	for _, bad := range [][]string{{"-top", "-1"}, {"-slide", "-1"}, {"-slide", "0"}, {"-tick", "0"}} {
		if out, ok := slotool(t, bin, bad...); ok {
			t.Fatalf("%v accepted:\n%s", bad, out)
		}
	}
}
