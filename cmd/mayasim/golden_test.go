package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// The golden fixtures pin every figure mayasim renders at a tiny scale:
// testdata/all.golden is the stdout of
//
//	mayasim -experiment all -warmup 10000 -roi 5000
//
// and testdata/all.ckpt.golden is that run's -checkpoint file with its
// lines sorted (cells complete in scheduling order; the set of lines is
// what is deterministic). Together they pin the checkpoint group names,
// the cell keys, the cell-value JSON and the rendered tables.
var goldenArgs = []string{"-experiment", "all", "-warmup", "10000", "-roi", "5000"}

// buildMayasim compiles this command into a temporary directory.
func buildMayasim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mayasim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runMayasim runs the binary and returns its stdout, failing on a
// nonzero exit.
func runMayasim(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mayasim %v: %v\nstderr:\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

func sortedLines(b []byte) []byte {
	lines := bytes.SplitAfter(b, []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, nil)
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenAllExperiments runs every experiment fresh, byte-compares
// stdout and the sorted checkpoint with the fixtures, then replays the
// fixture checkpoint with a fault that panics any recomputed cell (every
// cell key contains "|"): the replay must compute nothing and render the
// same bytes.
func TestGoldenAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every mayasim experiment")
	}
	bin := buildMayasim(t)
	wantOut := readGolden(t, "all.golden")
	wantCkpt := readGolden(t, "all.ckpt.golden")

	ckpt := filepath.Join(t.TempDir(), "fresh.ckpt")
	got := runMayasim(t, bin, append(goldenArgs, "-checkpoint", ckpt)...)
	if !bytes.Equal(got, wantOut) {
		t.Errorf("stdout differs from testdata/all.golden:\n%s", got)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sortedLines(raw), wantCkpt) {
		t.Errorf("sorted checkpoint differs from testdata/all.ckpt.golden:\n%s", sortedLines(raw))
	}

	replay := filepath.Join(t.TempDir(), "replay.ckpt")
	if err := os.WriteFile(replay, wantCkpt, 0o644); err != nil {
		t.Fatal(err)
	}
	got = runMayasim(t, bin, append(goldenArgs, "-checkpoint", replay, "-fault", "panic:|")...)
	if !bytes.Equal(got, wantOut) {
		t.Errorf("replayed stdout differs from testdata/all.golden:\n%s", got)
	}
}
