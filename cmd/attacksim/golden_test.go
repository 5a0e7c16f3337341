package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// testdata/all.golden pins the stdout of
//
//	attacksim -experiment all -sets 16 -runs 3 -max 250 -noise 48
//
// as rendered by the implementation that ran each experiment in this
// command. It is not regenerated for refactors: any change is a change to
// a reported result or to its rendering.
var goldenArgs = []string{"-experiment", "all", "-sets", "16", "-runs", "3", "-max", "250", "-noise", "48"}

// buildCommand compiles this command into a temporary directory.
func buildCommand(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(buildCommand(t), goldenArgs...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("attacksim %v: %v\nstderr:\n%s", goldenArgs, err, stderr.Bytes())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from testdata/all.golden:\n%s", stdout.Bytes())
	}
}
