package mayacache

// One benchmark per table and figure of the paper's evaluation, each
// regenerating a reduced-scale version of the experiment and logging the
// headline rows. The performance figures run the experiments figure table
// through Session.Run, exactly as mayasim and overheads do; the cmd tools
// (mayasim, securitysim, attacksim, overheads) run the full-scale
// versions with flags.
//
// Run with: go test -bench=. -benchtime=1x

import (
	"context"
	"fmt"
	"testing"

	"mayacache/internal/analytic"
	"mayacache/internal/attack"
	"mayacache/internal/baseline"
	"mayacache/internal/buckets"
	"mayacache/internal/cachemodel"
	maya "mayacache/internal/core"
	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/power"
)

// mustLLC unwraps a checked cache constructor for statically valid test
// geometries.
func mustLLC[T cachemodel.LLC](c T, err error) T {
	if err != nil {
		panic(err)
	}
	return c
}

// Benchmark_PerfFigures runs every performance figure (Figs 1, 4, 9, 10,
// Tables VII and XI, the Section V-B studies) and Table X's performance
// column at a reduced scale, one sub-benchmark per figure.
func Benchmark_PerfFigures(b *testing.B) {
	sc := experiments.Scale{WarmupInstr: 200_000, ROIInstr: 100_000, Seed: 1}
	for _, f := range append(experiments.Figures(), experiments.Table10Perf()) {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := harness.New(harness.Options{})
				rep, err := experiments.NewSession(runner, sc).Run(context.Background(), f)
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

func Benchmark_Fig6_BucketSpills(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, capacity := range []int{9, 10, 11, 12} {
			cfg := buckets.MayaDefault(4096, 1)
			cfg.Capacity = capacity
			m := buckets.New(cfg)
			m.Run(500_000)
			if i == 0 {
				rate := "none"
				if m.Spills() > 0 {
					rate = fmt.Sprintf("1 per %.2g iters", float64(m.Iterations())/float64(m.Spills()))
				}
				b.Logf("Fig 6: capacity %d -> spills %s", capacity, rate)
			}
		}
	}
}

func Benchmark_Fig7_Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := buckets.New(buckets.MayaDefault(4096, 1))
		for s := 0; s < 50; s++ {
			m.Run(20_000)
			m.SampleHistogram()
		}
		d, err := analytic.Solve(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			h := m.Histogram()
			for _, n := range []int{8, 9, 10, 11} {
				b.Logf("Fig 7: Pr(n=%d) simulated %.4f analytical %.4f", n, h[n], d.Pr(n))
			}
		}
	}
}

func Benchmark_Fig8_OccupancyAttack(b *testing.B) {
	const sets = 64
	for i := 0; i < b.N; i++ {
		designs := []struct {
			name      string
			mk        func(seed uint64) cachemodel.LLC
			occupancy int
		}{
			{"16-way", func(seed uint64) cachemodel.LLC {
				return mustLLC(baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
			}, sets * 16},
			{"Maya", func(seed uint64) cachemodel.LLC {
				return mustLLC(maya.NewChecked(maya.Config{SetsPerSkew: sets, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6, Seed: seed,
					Hasher: cachemodel.NewXorHasher(2, 6, seed)}))
			}, 2 * sets * 12},
			{"FA", func(seed uint64) cachemodel.LLC {
				return mustLLC(baseline.NewFullyAssociativeChecked(sets*16, seed, true))
			}, 2 * sets * 16},
		}
		for _, d := range designs {
			med, err := attack.Trials{Runs: 1, Workers: 1, Seed: 1}.MedianDistinguishCtx(context.Background(), d.mk, func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
				va := attack.NewModExpVictim(1, 64, 1<<21, attack.CacheToucher(c, 2))
				vb := attack.NewModExpVictim(4, 64, 1<<21, attack.CacheToucher(c, 3))
				return va, vb
			}, d.occupancy, 16, 4000, 4.5)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Fig 8 (modexp): %s needs %.0f encryptions to distinguish keys", d.name, med)
			}
		}
	}
}

func Benchmark_Table1_ReuseWays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, reuse := range []int{1, 3, 5, 7} {
			for _, inv := range []int{5, 6} {
				p := analytic.DesignPoint{BaseWays: 6, ReuseWays: reuse, InvalidWays: inv}
				v, err := p.InstallsPerSAE()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("Table I: reuse=%d invalid=%d -> %s", reuse, inv, analytic.FormatInstalls(v))
				}
			}
		}
	}
}

func Benchmark_Table4_Associativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pt := range []analytic.DesignPoint{
			{BaseWays: 3, ReuseWays: 1, InvalidWays: 6},
			{BaseWays: 6, ReuseWays: 3, InvalidWays: 6},
			{BaseWays: 12, ReuseWays: 6, InvalidWays: 6},
		} {
			v, err := pt.InstallsPerSAE()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Table IV: %d-way base (%d+%d) -> %s",
					2*(pt.BaseWays+pt.ReuseWays), pt.BaseWays, pt.ReuseWays, analytic.FormatInstalls(v))
			}
		}
	}
}

func Benchmark_Table8_Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []power.Design{power.Baseline, power.Mirage, power.Maya} {
			s := power.Account(d)
			if i == 0 {
				b.Logf("Table VIII: %-8s total %.0f KB (%+.1f%%)", d, s.TotalKB, s.OverheadVsBaseline()*100)
			}
		}
	}
}

func Benchmark_Table9_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []power.Design{power.Baseline, power.Mirage, power.Maya, power.MayaISO} {
			c := power.Estimate(d)
			if i == 0 {
				b.Logf("Table IX: %-8s read %.3f nJ write %.3f nJ static %.0f mW area %.3f mm2",
					d, c.ReadEnergyNJ, c.WriteEnergyNJ, c.StaticPowerMW, c.AreaMM2)
			}
		}
	}
}

func Benchmark_Table10_Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := []struct {
			d    power.Design
			T    float64
			ways int
		}{
			{power.Maya, 9, 15},
			{power.Mirage, 8, 14},
			{power.MirageLite, 8, 13},
			{power.MayaISO, 12, 18},
		}
		for _, r := range rows {
			dist, err := analytic.Solve(r.T)
			if err != nil {
				b.Fatal(err)
			}
			st := power.Account(r.d)
			if i == 0 {
				b.Logf("Table X: %-11s security %s storage %+.1f%%",
					r.d, analytic.FormatInstalls(dist.InstallsPerSAE(r.ways)), st.OverheadVsBaseline()*100)
			}
		}
	}
}
