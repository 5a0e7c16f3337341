package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The golden fixtures pin overheads' stdout, as rendered by the
// implementation that built each table in this command: every table
// without simulation, and Table X with its simulated performance column
// at a tiny scale. They are not regenerated for refactors: any change is
// a change to a reported result or to its rendering.
var goldens = []struct {
	file string
	args []string
	slow bool
}{
	{"all.golden", []string{"-table", "all"}, false},
	{"summary_perf.golden", []string{"-table", "summary", "-perf", "-warmup", "30000", "-roi", "15000"}, true},
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
		if g.slow && testing.Short() {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, g.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("overheads %v: %v\nstderr:\n%s", g.args, err, stderr.Bytes())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("overheads %v: stdout differs from testdata/%s:\n%s", g.args, g.file, stdout.Bytes())
		}
	}
}
