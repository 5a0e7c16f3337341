// Package experiments wires workloads, cache designs, and the simulator
// into the paper's numbered experiments.
//
// Every performance figure and table of the evaluation (Figs 1, 4, 9, 10,
// Tables VII, X and XI, and the Section V-B sensitivity studies) is one
// entry of a declarative figure table: the checkpoint groups of
// independent cells it reads, each with its cell keys and one cell
// function, plus a pure reducer from the cells' values and completeness
// flags to report rows — FAILED rows and aggregate rows included.
// Session.Run alone executes any entry, through harness.RunCells, so
// every figure gets fault isolation, retries, checkpoint resume and
// mid-cell snapshots the same way. Figures returns the entries mayasim
// runs; Table10Perf is the Table X performance column overheads runs.
//
// The security experiments (Figs 6 and 7, the non-decoupled study) run on
// the Monte-Carlo engine instead; see security.go.
package experiments

import (
	"context"

	"mayacache/internal/harness"
	"mayacache/internal/report"
)

// A Figure is one paper figure or table.
type Figure struct {
	// Name is the figure's mayasim -experiment name.
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
	run func(ctx context.Context, r *harness.Runner, sc Scale) groupResult
}

// groupResult is a group's cell values ([]T for the group's cell type),
// their completeness flags, and the context error of an interrupted run.
type groupResult struct {
	vals any
	ok   []bool
	err  error
}

// group defines a cell group. Cell i's checkpoint key is
// name|labels[i]|<scale>; cell computes its value.
func group[T any](name string, labels []string, cell func(ctx context.Context, sc Scale, i int) (T, error)) *cellGroup {
	return &cellGroup{run: func(ctx context.Context, r *harness.Runner, sc Scale) groupResult {
		keys := make([]string, len(labels))
		for i, l := range labels {
			keys[i] = l + "|" + scaleKey(sc)
		}
		vals, ok, err := harness.RunCells(ctx, r, name, keys, func(cctx context.Context, i int) (T, error) {
			return cell(cctx, sc, i)
		})
		return groupResult{vals: vals, ok: ok, err: err}
	}}
}

// A Report is a figure's rendered table and its incomplete-row count.
type Report struct {
	*report.Table
	Incomplete int
}

// Session runs figures on one harness.Runner at one scale. Each cell
// group runs at most once per session, so figures that share a group
// reuse its cells instead of recomputing (and re-reporting) them. A
// Session is not safe for concurrent use.
type Session struct {
	r    *harness.Runner
	sc   Scale
	done map[*cellGroup]groupResult
}

// NewSession returns a Session running cells through r at scale sc.
func NewSession(r *harness.Runner, sc Scale) *Session {
	return &Session{r: r, sc: sc, done: map[*cellGroup]groupResult{}}
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
			gr = g.run(ctx, s.r, s.sc)
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

// Lookup returns the entry of Figures named name, or nil.
func Lookup(name string) *Figure {
	for _, f := range Figures() {
		if f.Name == name {
			return f
		}
	}
	return nil
}
