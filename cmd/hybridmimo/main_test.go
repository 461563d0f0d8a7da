package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

func TestReadsFlagRejectsNonPositive(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hybridmimo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
