package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mayacache/internal/faults"
	"mayacache/internal/harness"
	"mayacache/internal/report"
)

// sweepScale is small enough that each cell simulates in well under a
// second; the figures exercised here use 1- to 4-core mixes only.
func sweepScale() Scale {
	return Scale{WarmupInstr: 60_000, ROIInstr: 30_000, Seed: 1}
}

// runCores runs the core-count figure at the given counts in a fresh
// session and returns its report, cell values and completeness flags.
func runCores(ctx context.Context, r *harness.Runner, sc Scale, counts []int) (Report, []sensitivityRow, []bool, error) {
	f := coresFigure(sc, counts)
	s := NewSession(r)
	rep, err := s.Run(ctx, f)
	res := s.done[f.groups[0]]
	return rep, res.vals.([]sensitivityRow), res.ok, err
}

func TestFigureNamesUnique(t *testing.T) {
	var all []*Figure
	for _, figs := range [][]*Figure{
		Figures(sweepScale()),
		SecurityFigures(SecuritySpec{}, nil),
		AttackFigures(AttackSpec{}),
		CostFigures(true, sweepScale()),
	} {
		all = append(all, figs...)
		if got := Select(figs, "all"); len(got) != len(figs) {
			t.Fatalf("Select(all) returned %d of %d entries", len(got), len(figs))
		}
	}
	seen := map[string]bool{}
	for _, f := range all {
		if seen[f.Name] || f.Name == "all" {
			t.Fatalf("figure name %q repeated or reserved", f.Name)
		}
		seen[f.Name] = true
		if g := Select(all, f.Name); len(g) != 1 || g[0] != f {
			t.Fatalf("Select(%q) does not return its entry", f.Name)
		}
	}
	if Select(Figures(sweepScale()), "fig6") != nil {
		t.Fatal("Select found a name outside its list")
	}
}

// TestSessionRunsSharedGroupOnce: figures sharing a cell group (Fig 9 and
// Table VII) compute and report its cells once per session.
func TestSessionRunsSharedGroupOnce(t *testing.T) {
	var calls int32
	g := group("shared", []string{"a", "b"}, func(_ context.Context, i int) (float64, error) {
		atomic.AddInt32(&calls, 1)
		return float64(i + 1), nil
	})
	sum := func(t *report.Table, res []groupResult) int {
		total := 0.0
		for _, v := range res[0].vals.([]float64) {
			total += v
		}
		t.AddRow("sum", total)
		return countFalse(res[0].ok)
	}
	a := &Figure{Name: "a", groups: []*cellGroup{g}, reduce: sum}
	b := &Figure{Name: "b", groups: []*cellGroup{g}, reduce: sum}
	s := NewSession(harness.New(harness.Options{Workers: 1}))
	for _, f := range []*Figure{a, b} {
		rep, err := s.Run(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Rows[0][1]; got != "3.000" {
			t.Fatalf("figure %s sum %s, want 3.000", f.Name, got)
		}
	}
	if calls != 2 {
		t.Fatalf("%d cell computations, want 2", calls)
	}
}

func TestSweepResumeMatchesFreshRun(t *testing.T) {
	sc := sweepScale()
	counts := []int{1, 2, 4}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Interrupted run: the parent context is cancelled once the first cell
	// has completed, abandoning the rest.
	cp1, err := harness.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int32
	r1 := harness.New(harness.Options{Workers: 1, Checkpoint: cp1, PreRun: func(string) error {
		if atomic.AddInt32(&calls, 1) > 1 {
			cancel()
			return context.Canceled
		}
		return nil
	}})
	rep1, _, ok1, err := runCores(ctx1, r1, sc, counts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if r1.Failed() {
		t.Fatalf("cancellation recorded as failure: %v", r1.Failures())
	}
	if !ok1[0] || ok1[1] || ok1[2] {
		t.Fatalf("completion mask after interrupt: %v", ok1)
	}
	if rep1.Incomplete != 2 || rep1.Rows[1][1] != "FAILED" {
		t.Fatalf("interrupted report: %d incomplete, rows %v", rep1.Incomplete, rep1.Rows)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: restores cell 0 from the checkpoint and computes the
	// remaining cells.
	cp2, err := harness.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 1 {
		t.Fatalf("checkpoint holds %d cells, want 1", cp2.Len())
	}
	r2 := harness.New(harness.Options{Workers: 1, Checkpoint: cp2})
	repResumed, resumed, ok2, err := runCores(context.Background(), r2, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ok2 {
		if !ok2[i] {
			t.Fatalf("resumed cell %d incomplete", i)
		}
	}
	if _, restored, failed := r2.Stats(); restored != 1 || failed != 0 {
		t.Fatalf("resume stats: restored=%d failed=%d", restored, failed)
	}

	// Uninterrupted reference run, no checkpoint at all.
	r3 := harness.New(harness.Options{Workers: 1})
	repFresh, fresh, ok3, err := runCores(context.Background(), r3, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ok3 {
		if !ok3[i] {
			t.Fatalf("fresh cell %d incomplete", i)
		}
	}
	// Cell values pass through a JSON round-trip, which is exact for
	// float64, so the resumed values must match bit for bit.
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed cells diverge from fresh run:\n%+v\nvs\n%+v", resumed, fresh)
	}
	if !reflect.DeepEqual(repResumed, repFresh) {
		t.Fatalf("resumed report diverges from fresh run:\n%v\nvs\n%v", repResumed.Rows, repFresh.Rows)
	}
}

func TestSweepIsolatesInjectedFault(t *testing.T) {
	sc := sweepScale()
	hook, err := faults.ParseHook("panic:cores=2")
	if err != nil {
		t.Fatal(err)
	}
	r := harness.New(harness.Options{Workers: 1, PreRun: hook})
	rep, rows, ok, err := runCores(context.Background(), r, sc, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !ok[0] || ok[1] || !ok[2] {
		t.Fatalf("completion mask %v, want only cores=2 failed", ok)
	}
	if rows[0].NormMaya <= 0 || rows[2].NormMaya <= 0 {
		t.Fatalf("sibling cells did not produce results: %+v", rows)
	}
	if want := []string{"2 cores", "FAILED"}; rep.Incomplete != 1 || !reflect.DeepEqual(rep.Rows[1], want) {
		t.Fatalf("report row %v (%d incomplete), want %v", rep.Rows[1], rep.Incomplete, want)
	}
	fails := r.Failures()
	if len(fails) != 1 {
		t.Fatalf("%d failures, want 1: %v", len(fails), fails)
	}
	f := fails[0]
	if f.Experiment != "cores" || !strings.Contains(f.Cell, "cores=2") {
		t.Fatalf("failure misattributed: %+v", f)
	}
	if !errors.Is(f.Err, faults.ErrInjected) {
		t.Fatalf("failure does not unwrap to the injected fault: %v", f.Err)
	}
	if len(f.Stack) == 0 {
		t.Fatal("panic failure carries no stack")
	}
}

func TestSweepKeysEmbedScale(t *testing.T) {
	// A checkpoint taken at one scale must never satisfy lookups at
	// another: the cell keys embed warmup/roi/seed.
	sc := sweepScale()
	cp := harness.NewMemCheckpoint()
	r := harness.New(harness.Options{Workers: 1, Checkpoint: cp})
	if _, _, _, err := runCores(context.Background(), r, sc, []int{1}); err != nil {
		t.Fatal(err)
	}
	keys := cp.Keys()
	if len(keys) != 1 {
		t.Fatalf("keys: %v", keys)
	}
	want := "cores|cores=1|w=60000|roi=30000|seed=1"
	if keys[0] != want {
		t.Fatalf("key %q, want %q", keys[0], want)
	}

	other := sc
	other.Seed = 2
	r2 := harness.New(harness.Options{Workers: 1, Checkpoint: cp})
	if _, _, _, err := runCores(context.Background(), r2, other, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, restored, _ := r2.Stats(); restored != 0 {
		t.Fatalf("checkpoint crossed scales: %d restored", restored)
	}
	if cp.Len() != 2 {
		t.Fatalf("checkpoint holds %d cells, want 2 distinct scale keys", cp.Len())
	}
}
