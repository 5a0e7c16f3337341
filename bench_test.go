package mayacache

// One benchmark per table and figure of the paper, each regenerating a
// reduced-scale version of the experiment through the experiments figure
// table and Session.Run, exactly as the cmd tools (mayasim, securitysim,
// attacksim, overheads) run the full-scale versions.
//
// Run with: go test -bench=. -benchtime=1x

import (
	"context"
	"testing"

	"mayacache/internal/experiments"
	"mayacache/internal/harness"
)

// Benchmark_Figures runs every entry of the figure table at a reduced
// scale, one sub-benchmark per entry, logging its table once.
func Benchmark_Figures(b *testing.B) {
	sc := experiments.Scale{WarmupInstr: 200_000, ROIInstr: 100_000, Seed: 1}
	var figs []*experiments.Figure
	for _, list := range [][]*experiments.Figure{
		experiments.Figures(sc),
		experiments.SecurityFigures(experiments.SecuritySpec{Buckets: 4096, Iters: 1_000_000, Seed: 1, Shards: 1, Workers: 1}, nil),
		experiments.AttackFigures(experiments.AttackSpec{Sets: 64, Runs: 1, Max: 4000, Noise: 16, Seed: 1, Workers: 1}),
		experiments.CostFigures(true, sc),
	} {
		figs = append(figs, list...)
	}
	for _, f := range figs {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := harness.New(harness.Options{})
				rep, err := experiments.NewSession(runner).Run(context.Background(), f)
				if err != nil || runner.Failed() || rep.Incomplete > 0 {
					b.Fatalf("%s: %d incomplete rows, err %v, failures %v", f.Name, rep.Incomplete, err, runner.Failures())
				}
				if i == 0 {
					b.Log("\n" + rep.String())
				}
			}
		})
	}
}
