package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The golden fixtures pin securitysim's stdout at a small scale, as
// rendered by the implementation that ran each experiment in this
// command. They are not regenerated for refactors: any change is a change
// to a reported result or to its rendering.
var goldens = []struct {
	file string
	args []string
}{
	{"all.golden", []string{"-experiment", "all", "-buckets", "512", "-iters", "200000", "-seed", "5", "-shards", "2", "-progress", "off"}},
	{"all.csv.golden", []string{"-experiment", "all", "-buckets", "512", "-iters", "200000", "-seed", "5", "-shards", "2", "-progress", "off", "-csv"}},
}

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
	bin := buildCommand(t)
	for _, g := range goldens {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, g.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("securitysim %v: %v\nstderr:\n%s", g.args, err, stderr.Bytes())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("securitysim %v: stdout differs from testdata/%s:\n%s", g.args, g.file, stdout.Bytes())
		}
	}
}
