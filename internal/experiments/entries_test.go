package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"mayacache/internal/harness"
)

// smallEntries are securitysim's, attacksim's and overheads' entries at
// a scale where each runs in milliseconds.
func smallEntries() []*Figure {
	var figs []*Figure
	for _, list := range [][]*Figure{
		SecurityFigures(SecuritySpec{Buckets: 64, Iters: 2000, Seed: 1, Shards: 2, Workers: 1}, nil),
		AttackFigures(AttackSpec{Sets: 4, Runs: 1, Max: 20, Noise: 4, Seed: 1, Workers: 1}),
		CostFigures(false, Scale{}),
	} {
		figs = append(figs, list...)
	}
	return figs
}

// failedRows counts the report rows with a FAILED cell.
func failedRows(rep Report) int {
	n := 0
	for _, row := range rep.Rows {
		if slices.Contains(row, "FAILED") {
			n++
		}
	}
	return n
}

// TestEntriesRenderFailedCells: with every cell failing, each entry that
// reads cells renders FAILED rows and counts each of them incomplete;
// with none failing, no row is FAILED.
func TestEntriesRenderFailedCells(t *testing.T) {
	errInjected := errors.New("injected")
	for _, f := range smallEntries() {
		r := harness.New(harness.Options{Workers: 1, PreRun: func(string) error { return errInjected }})
		rep, err := NewSession(r).Run(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		failed := failedRows(rep)
		if rep.Incomplete != failed || (len(f.groups) > 0) != (failed > 0) || r.Failed() != (failed > 0) {
			t.Errorf("%s with failing cells: %d incomplete, %d FAILED rows of %d, %d groups", f.Name, rep.Incomplete, failed, len(rep.Rows), len(f.groups))
		}
	}
	for _, f := range smallEntries() {
		r := harness.New(harness.Options{Workers: 1})
		rep, err := NewSession(r).Run(context.Background(), f)
		if err != nil || r.Failed() || rep.Incomplete != 0 || failedRows(rep) != 0 || len(rep.Rows) == 0 {
			t.Errorf("%s: err %v, failures %v, %d incomplete, rows %v", f.Name, err, r.Failures(), rep.Incomplete, rep.Rows)
		}
	}
}

// TestEntryKeysEmbedParameters: every Monte-Carlo and attack cell key
// names the parameters that affect its value, so a checkpoint written at
// one setting never satisfies another.
func TestEntryKeysEmbedParameters(t *testing.T) {
	cp := harness.NewMemCheckpoint()
	r := harness.New(harness.Options{Workers: 1, Checkpoint: cp})
	s := NewSession(r)
	for _, f := range smallEntries() {
		if _, err := s.Run(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{
		"fig6|":         "|buckets=64|iters=2000|seed=1|shards=2",
		"fig7|":         "|buckets=64|iters=2000|seed=1|shards=2",
		"nondecoupled|": "|buckets=64|iters=2000|seed=1|shards=2",
		"fig8|":         "|sets=4|runs=1|max=20|noise=4|seed=1",
		"evictionset|":  "|sets=4|seed=1",
	}
	seen := map[string]int{}
	for _, k := range cp.Keys() {
		for prefix, suffix := range want {
			if strings.HasPrefix(k, prefix) {
				seen[prefix]++
				if !strings.HasSuffix(k, suffix) {
					t.Errorf("key %q does not end in %q", k, suffix)
				}
			}
		}
	}
	for prefix := range want {
		if seen[prefix] == 0 {
			t.Errorf("no %s cell in the checkpoint %v", prefix, cp.Keys())
		}
	}
}
