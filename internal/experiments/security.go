package experiments

import (
	"context"
	"fmt"

	"mayacache/internal/analytic"
	"mayacache/internal/buckets"
	"mayacache/internal/mc"
	"mayacache/internal/report"
)

// This file hosts the security analysis: the shard-parallel Monte-Carlo
// runners (the Fig 6 capacity sweep, the Fig 7 occupancy histogram, the
// Section VI non-decoupled first-spill measurement) and the figure-table
// entries securitysim runs, which join them with the analytical model.

// SecuritySpec parameterizes one security Monte-Carlo experiment.
type SecuritySpec struct {
	// Buckets is the bucket count per skew (16384 = paper scale).
	Buckets int
	// Iters is the total iteration budget per configuration point.
	Iters uint64
	// Seed is the base seed; shard seeds derive from it.
	Seed uint64
	// Shards is the independent-stream count (0 = one per CPU). Part of
	// the experiment definition; 1 reproduces the historical serial runs.
	Shards int
	// Workers bounds pool parallelism (0 = one per CPU); never affects
	// results.
	Workers int
	// Tracker, when non-nil, receives iteration progress.
	Tracker *mc.Tracker
}

// Fig6Capacities are the simulated capacity points of Figure 6; 14 and 15
// come from the analytical model, as in the paper.
var Fig6Capacities = []int{9, 10, 11, 12, 13}

// Fig6 measures iterations per bucket spill at each of Fig6Capacities,
// flattening the capacity x shard grid onto one worker pool so every CPU
// stays busy until the whole sweep finishes. Each capacity point's merged
// result is identical to a standalone RunSharded at that capacity.
func Fig6(ctx context.Context, spec SecuritySpec) ([]*buckets.ShardedResult, error) {
	runs := make([]buckets.ShardedRun, len(Fig6Capacities))
	for i, capacity := range Fig6Capacities {
		cfg := buckets.MayaDefault(spec.Buckets, spec.Seed)
		cfg.Capacity = capacity
		runs[i] = buckets.ShardedRun{
			Config:  cfg,
			Iters:   spec.Iters,
			Shards:  spec.Shards,
			Tracker: spec.Tracker,
		}
	}
	return buckets.RunShardedMulti(ctx, spec.Workers, runs...)
}

// Fig7Samples is the histogram sampling count of the Figure 7 driver.
const Fig7Samples = 200

// Fig7 runs the Maya bucket model and samples the occupancy histogram at
// the Fig 7 cadence (each shard's budget split into Fig7Samples chunks).
func Fig7(ctx context.Context, spec SecuritySpec) (*buckets.ShardedResult, error) {
	return buckets.RunSharded(ctx, buckets.ShardedRun{
		Config:  buckets.MayaDefault(spec.Buckets, spec.Seed),
		Iters:   spec.Iters,
		Shards:  spec.Shards,
		Workers: spec.Workers,
		Samples: Fig7Samples,
		Tracker: spec.Tracker,
	})
}

// NonDecoupled runs the Section VI strawman (conventional tag geometry at
// a 75% threshold) until each shard's first spill. With one shard the
// result matches the serial RunUntilSpill measurement.
func NonDecoupled(ctx context.Context, spec SecuritySpec) (*buckets.ShardedResult, error) {
	return buckets.RunSharded(ctx, buckets.ShardedRun{
		Config:     buckets.ThresholdDefault(spec.Buckets, spec.Seed),
		Iters:      spec.Iters,
		Shards:     spec.Shards,
		Workers:    spec.Workers,
		UntilSpill: true,
		Tracker:    spec.Tracker,
	})
}

// key renders the parameters of a Monte-Carlo cell key. Workers and
// Tracker never change a result, so they are not part of it.
func (s SecuritySpec) key() string {
	return fmt.Sprintf("buckets=%d|iters=%d|seed=%d|shards=%d", s.Buckets, s.Iters, s.Seed, s.Shards)
}

// SecurityFigures returns securitysim's entries — Fig 6, Fig 7, Tables I
// and IV and the Section VI strawman — in the order its "all" experiment
// renders them, with the Monte-Carlo cells at spec. When progress is
// non-nil it supplies each Monte-Carlo entry's tracker, given the entry's
// name and iteration total.
func SecurityFigures(spec SecuritySpec, progress func(name string, total uint64) *mc.Tracker) []*Figure {
	tracked := func(name string, total uint64) SecuritySpec {
		s := spec
		if progress != nil {
			s.Tracker = progress(name, total)
		}
		return s
	}
	return []*Figure{
		fig6(tracked("fig6", spec.Iters*uint64(len(Fig6Capacities)))),
		fig7(tracked("fig7", spec.Iters)),
		table1(), table4(),
		nonDecoupled(tracked("nondecoupled", spec.Iters)),
	}
}

// modelGroup solves the analytical Birth-Death model at each average
// bucket population in ts, one cell per T.
func modelGroup(name string, ts ...float64) *cellGroup {
	return group(name, labelsOf("T=%g", ts), func(_ context.Context, i int) (*analytic.Distribution, error) {
		return analytic.Solve(ts[i])
	})
}

// fromModel returns f of cell i of a modelGroup result, or FAILED when
// the cell is incomplete.
func fromModel(res groupResult, i int, f func(d *analytic.Distribution) string) string {
	if !res.ok[i] {
		return "FAILED"
	}
	return f(res.vals.([]*analytic.Distribution)[i])
}

// installs formats a distribution's installs per SAE at ways per skew.
func installs(ways int) func(d *analytic.Distribution) string {
	return func(d *analytic.Distribution) string { return analytic.FormatInstalls(d.InstallsPerSAE(ways)) }
}

// fig6 measures iterations per bucket spill as capacity varies from 9 to
// 13; 14 and 15 come from the analytical model (as in the paper, where
// even 10^12 iterations see no spill). The simulated sweep is one cell,
// so its capacity x shard grid keeps one worker pool busy.
func fig6(spec SecuritySpec) *Figure {
	return &Figure{
		Name:   "fig6",
		Title:  "Fig 6: iterations per bucket spill vs bucket capacity (Maya model)",
		Header: []string{"capacity (ways/skew)", "iterations/spill", "source"},
		groups: []*cellGroup{
			group("fig6", []string{spec.key()}, func(ctx context.Context, _ int) ([]*buckets.ShardedResult, error) {
				return Fig6(ctx, spec)
			}),
			modelGroup("fig6-model", 9),
		},
		reduce: func(t *report.Table, res []groupResult) int {
			incomplete := 0
			for i, capacity := range Fig6Capacities {
				v := "FAILED"
				if res[0].ok[0] {
					p := res[0].vals.([][]*buckets.ShardedResult)[0][i]
					v = fmt.Sprintf("> %d (no spill observed)", spec.Iters)
					if p.Spills > 0 {
						v = fmt.Sprintf("%.3g", float64(p.Iterations)/float64(p.Spills))
					}
				}
				incomplete += addRow(t, capacity, v, "simulated")
			}
			for _, capacity := range []int{14, 15} {
				// Two installs per iteration in the Maya model.
				v := fromModel(res[1], 0, func(d *analytic.Distribution) string { return fmt.Sprintf("%.3g", d.InstallsPerSAE(capacity)/2) })
				incomplete += addRow(t, capacity, v, "analytical")
			}
			return incomplete
		},
	}
}

// fig7 compares the simulated occupancy distribution Pr(n = N) with the
// analytical model for N = 0..16.
func fig7(spec SecuritySpec) *Figure {
	return &Figure{
		Name:   "fig7",
		Title:  "Fig 7: Pr(bucket has N balls) — simulated vs analytical",
		Header: []string{"N", "simulated", "analytical"},
		groups: []*cellGroup{
			group("fig7", []string{spec.key()}, func(ctx context.Context, _ int) ([]float64, error) {
				res, err := Fig7(ctx, spec)
				if err != nil {
					return nil, err
				}
				return res.Histogram(), nil
			}),
			modelGroup("fig7-model", 9),
		},
		reduce: func(t *report.Table, res []groupResult) int {
			incomplete := 0
			for n := 0; n <= 16; n++ {
				simv := "FAILED"
				if sim := res[0].vals.([][]float64)[0]; res[0].ok[0] {
					simv = "-"
					if n < len(sim) && sim[n] > 0 {
						simv = fmt.Sprintf("%.4g", sim[n])
					}
				}
				prv := fromModel(res[1], 0, func(d *analytic.Distribution) string { return fmt.Sprintf("%.4g", d.Pr(n)) })
				incomplete += addRow(t, n, simv, prv)
			}
			return incomplete
		},
	}
}

// table1 computes cache line installs per SAE across reuse/invalid way
// configurations with 6 base ways (analytical model; the paper's own
// table extrapolates the same way for the large values).
func table1() *Figure {
	reuse := []int{1, 3, 5, 7}
	return &Figure{
		Name:   "table1",
		Title:  "Table I: installs per SAE vs reuse ways (analytical model)",
		Header: []string{"reuse ways/skew", "5 invalid ways/skew", "6 invalid ways/skew"},
		groups: []*cellGroup{modelGroup("table1", mapEach(reuse, func(r int) float64 { return float64(6 + r) })...)},
		reduce: func(t *report.Table, res []groupResult) int {
			incomplete := 0
			for i, r := range reuse {
				incomplete += addRow(t, r, fromModel(res[0], i, installs(6+r+5)), fromModel(res[0], i, installs(6+r+6)))
			}
			return incomplete
		},
	}
}

// table4 sweeps the tag-store base associativity: 3+1, 6+3 and 12+6 base
// and reuse ways per skew, so T = 4, 9 and 18.
func table4() *Figure {
	ts := []float64{4, 9, 18}
	return &Figure{
		Name:   "table4",
		Title:  "Table IV: installs per SAE vs tag-store associativity (analytical model)",
		Header: []string{"invalid ways/skew", "8-ways (3+1)", "18-ways (6+3)", "36-ways (12+6)"},
		groups: []*cellGroup{modelGroup("table4", ts...)},
		reduce: func(t *report.Table, res []groupResult) int {
			incomplete := 0
			for _, inv := range []int{4, 5, 6} {
				row := []any{inv}
				for j, T := range ts {
					row = append(row, fromModel(res[0], j, installs(int(T)+inv)))
				}
				incomplete += addRow(t, row...)
			}
			return incomplete
		},
	}
}

// nonDecoupled evaluates the Section VI strawman: a conventional tag
// geometry kept at 75% occupancy with load-aware fills and global random
// eviction.
func nonDecoupled(spec SecuritySpec) *Figure {
	return &Figure{
		Name:   "nondecoupled",
		Title:  "Section VI: non-decoupled 75%-threshold design",
		Header: []string{"model", "installs per SAE"},
		groups: []*cellGroup{
			group("nondecoupled", []string{spec.key()}, func(ctx context.Context, _ int) (*buckets.ShardedResult, error) {
				return NonDecoupled(ctx, spec)
			}),
			modelGroup("nondecoupled-model", 12),
		},
		reduce: func(t *report.Table, res []groupResult) int {
			sim := "FAILED"
			if r := res[0].vals.([]*buckets.ShardedResult)[0]; res[0].ok[0] {
				sim = fmt.Sprintf("> %d", spec.Iters)
				if r.Spilled {
					sim = fmt.Sprint(r.FirstSpillIter)
				}
			}
			return addRow(t, "simulated (first spill)", sim) + addRow(t, "analytical", fromModel(res[1], 0, installs(16)))
		},
	}
}
