// Package experiments wires workloads, cache designs, and the simulator
// into the paper's numbered experiments.
//
// Every figure and table of the paper is one entry of a declarative
// figure table: the checkpoint groups of independent cells it reads, each
// with its cell keys and one cell function, plus a pure reducer from the
// cells' values and completeness flags to report rows — FAILED rows and
// aggregate rows included. An entry's parameters are fixed when it is
// built, and every cell key embeds each parameter that affects its value.
// Session.Run alone executes any entry, through harness.RunCells, so
// every figure gets fault isolation, retries, checkpoint resume and
// mid-cell snapshots the same way. Figures, SecurityFigures,
// AttackFigures and CostFigures build the entries of mayasim,
// securitysim, attacksim and overheads; Write and Exit are those
// commands' shared rendering and exit path.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"mayacache/internal/cachemodel"
	"mayacache/internal/harness"
	"mayacache/internal/report"
	"mayacache/internal/snapshot"
)

// A Figure is one paper figure or table.
type Figure struct {
	// Name is the figure's -experiment (or -table) name.
	Name   string
	Title  string
	Header []string
	// groups are the cell groups the figure reads, in run order.
	groups []*cellGroup
	// reduce renders the groups' results, in groups order, as rows of t
	// and returns how many rows (Table VII: input cells) are incomplete.
	reduce func(t *report.Table, res []groupResult) int
}

// cellGroup is one checkpoint group: the cells a single harness.RunCells
// call runs. Groups are shared between figures (Fig 9 and Table VII read
// the same cells), and a Session identifies them by pointer.
type cellGroup struct {
	run func(ctx context.Context, r *harness.Runner) groupResult
}

// groupResult is a group's cell values ([]T for the group's cell type),
// their completeness flags, and the context error of an interrupted run.
type groupResult struct {
	vals any
	ok   []bool
	err  error
}

// group defines a cell group. Cell i's checkpoint key is name|keys[i];
// cell computes its value.
func group[T any](name string, keys []string, cell func(ctx context.Context, i int) (T, error)) *cellGroup {
	return &cellGroup{run: func(ctx context.Context, r *harness.Runner) groupResult {
		vals, ok, err := harness.RunCells(ctx, r, name, keys, cell)
		return groupResult{vals: vals, ok: ok, err: err}
	}}
}

// keyed appends the parameter part of a cell key to each label.
func keyed(labels []string, params string) []string {
	return mapEach(labels, func(l string) string { return l + "|" + params })
}

// addRow appends row to t and returns its contribution to a report's
// incomplete count: 1 when a cell of it is FAILED.
func addRow(t *report.Table, row ...any) int {
	t.AddRow(row...)
	if slices.Contains(row, any("FAILED")) {
		return 1
	}
	return 0
}

// A Report is a figure's rendered table and its incomplete-row count.
type Report struct {
	*report.Table
	Incomplete int
}

// Session runs figures on one harness.Runner. Each cell group runs at
// most once per session, so figures that share a group reuse its cells
// instead of recomputing (and re-reporting) them. A Session is not safe
// for concurrent use.
type Session struct {
	r    *harness.Runner
	done map[*cellGroup]groupResult
}

// NewSession returns a Session running cells through r.
func NewSession(r *harness.Runner) *Session {
	return &Session{r: r, done: map[*cellGroup]groupResult{}}
}

// Run runs the cell groups of f that this session has not run yet and
// reduces all of them to f's report. Cells that failed or were cancelled
// render as FAILED rows, and aggregates cover completed cells only. The
// error is non-nil only when ctx was cancelled during the run.
func (s *Session) Run(ctx context.Context, f *Figure) (Report, error) {
	res := make([]groupResult, len(f.groups))
	var err error
	for i, g := range f.groups {
		gr, ok := s.done[g]
		if !ok {
			gr = g.run(ctx, s.r)
			s.done[g] = gr
		}
		res[i] = gr
		if err == nil {
			err = gr.err
		}
	}
	t := report.NewTable(f.Title, f.Header...)
	return Report{Table: t, Incomplete: f.reduce(t, res)}, err
}

// Names returns the names of figs, in order.
func Names(figs []*Figure) []string {
	return mapEach(figs, func(f *Figure) string { return f.Name })
}

// Select returns all of figs for "all", else the entry named name (nil
// when there is none).
func Select(figs []*Figure, name string) []*Figure {
	if name == "all" {
		return figs
	}
	for _, f := range figs {
		if f.Name == name {
			return []*Figure{f}
		}
	}
	return nil
}

// Write renders rep to w as a table (CSV when csv is set), then a note
// when rows are FAILED or missing, then a blank line.
func Write(w io.Writer, rep Report, csv bool) {
	if csv {
		rep.CSV(w)
	} else {
		rep.Render(w)
	}
	if rep.Incomplete > 0 {
		fmt.Fprintf(w, "note: %d row(s) FAILED or missing; aggregates cover completed rows only\n", rep.Incomplete)
	}
	fmt.Fprintln(w)
}

// Exit returns the exit status of a figure command named prog whose cells
// ran on r, writing the reason to stderr: 1 when interrupted or when
// cells failed, 2 when every failure is a stale snapshot or an invalid
// cache configuration (usage errors: no simulation ran for those cells),
// and 0 otherwise.
func Exit(stderr io.Writer, prog string, r *harness.Runner, interrupted bool) int {
	if interrupted {
		fmt.Fprintf(stderr, "%s: interrupted; partial tables above\n", prog)
		return 1
	}
	if !r.Failed() {
		return 0
	}
	r.WriteFailureSummary(stderr)
	if field, only := mismatchOnly(r.Failures()); only {
		fmt.Fprintf(stderr, "%s: all failures are stale-snapshot mismatches (field %q): the saved state was taken under a different configuration; rerun with the original flags, or delete the snapshot files and checkpoint entries to recompute\n", prog, field)
		return 2
	}
	if badConfigOnly(r.Failures()) {
		fmt.Fprintf(stderr, "%s: all failures are invalid cache configurations (cachemodel.ErrBadConfig): no simulation ran for those cells; fix the configuration and rerun\n", prog)
		return 2
	}
	return 1
}

// badConfigOnly reports whether every recorded failure unwraps to
// cachemodel.ErrBadConfig — a run whose only problem was asking for an
// unbuildable cache, which is usage error (exit 2), not a simulation
// failure (exit 1).
func badConfigOnly(fails []*harness.RunError) bool {
	if len(fails) == 0 {
		return false
	}
	for _, f := range fails {
		if !errors.Is(f.Err, cachemodel.ErrBadConfig) {
			return false
		}
	}
	return true
}

// mismatchOnly reports whether every recorded failure unwraps to a
// snapshot.MismatchError — a run that found only incompatible saved state
// and did no wrong otherwise — and names the first mismatched field.
func mismatchOnly(fails []*harness.RunError) (string, bool) {
	if len(fails) == 0 {
		return "", false
	}
	field := ""
	for _, f := range fails {
		var mm *snapshot.MismatchError
		if !errors.As(f.Err, &mm) {
			return "", false
		}
		if field == "" {
			field = mm.Field
		}
	}
	return field, true
}
