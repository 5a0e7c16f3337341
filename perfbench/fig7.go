package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"mayacache/internal/analytic"
	"mayacache/internal/buckets"
	"mayacache/internal/experiments"
	"mayacache/internal/mc"
)

// fig7Shards is the shard count of the run, part of its definition.
const fig7Shards = 2

// fig7Tolerance is how far, relative to the analytical value, each
// simulated Pr(n = N) for N in [fig7MinN, fig7MaxN] may lie: agreement
// to the two significant digits EXPERIMENTS.md reports. At 10M
// iterations the largest deviation seen over seeds 1-3 is 1.5% (N = 12).
const (
	fig7Tolerance = 0.03
	fig7MinN      = 5
	fig7MaxN      = 12
)

func runFig7(ctx context.Context, env *runEnv) (*repResult, error) {
	// Set-up: the analytical Birth-Death model the histogram is checked
	// against.
	t := time.Now()
	dist, err := analytic.Solve(9)
	if err != nil {
		return nil, err
	}
	solve := time.Since(t)
	workers := min(fig7Shards, runtime.NumCPU())
	spec := experiments.SecuritySpec{
		Buckets: env.sc.buckets, Iters: env.sc.iters, Seed: env.seed,
		Shards: fig7Shards, Workers: workers,
	}
	quiesce()
	env.markSetup()

	gc := readGC()
	cpu0 := cpuTime()
	start := time.Now()
	res, err := experiments.Fig7(ctx, spec)
	if err != nil {
		return nil, err
	}
	workS := time.Since(start)
	env.markWorkEnd()
	cpu := cpuTime() - cpu0
	gcCycles, allocMB := gc.since()

	ops := make([]int, res.Shards)
	for i := range ops {
		ops[i] = env.checks.op()
	}
	hist := res.Histogram()
	for _, p := range checkHistogram(hist, dist) {
		env.checks.fail(ops, "%s", p)
	}
	digest := []string{fmt.Sprintf("iterations %d installs %d spills %d hist_events %d",
		res.Iterations, res.Installs, res.Spills, res.HistEvents)}
	for n, p := range hist {
		digest = append(digest, fmt.Sprintf("Pr(%d) %v", n, p))
	}

	out := &repResult{WorkS: workS.Seconds(), Work: float64(res.Iterations), Digest: digest}
	if env.trace {
		// The traced run counts iterations at the engine's progress
		// boundary, the only one the model exposes.
		spec.Tracker = mc.NewTracker(spec.Iters, nil)
		quiesce()
		start := time.Now()
		traced, err := experiments.Fig7(ctx, spec)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		for _, p := range compareFig7(res, traced, spec.Tracker.Done()) {
			env.checks.fail(ops, "%s", p)
		}
		out.Layers = withAllLayers(map[string]float64{
			"layers.wall_s":       wall.Seconds(),
			"trace.overhead_frac": wall.Seconds()/workS.Seconds() - 1,
			"runtime.gc_cycles":   gcCycles,
			"runtime.alloc_mb":    allocMB,
			"buckets.iters":       float64(spec.Tracker.Done()),
			"buckets.ns_per_iter": nsPer(cpu, res.Iterations),
			"mc.parallel_eff":     ratio(cpu.Seconds(), workS.Seconds()*float64(workers)),
			"analytic.solve_s":    solve.Seconds(),
		})
	}
	return env.finish(out), nil
}

// checkHistogram returns what is wrong with a simulated Fig 7 histogram:
// it must sum to 1 and agree with the analytical model on N in
// [fig7MinN, fig7MaxN].
func checkHistogram(hist []float64, d *analytic.Distribution) []string {
	var problems []string
	sum := 0.0
	for _, p := range hist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		problems = append(problems, fmt.Sprintf("histogram sums to %v", sum))
	}
	for n := fig7MinN; n <= fig7MaxN; n++ {
		sim := 0.0
		if n < len(hist) {
			sim = hist[n]
		}
		if want := d.Pr(n); math.Abs(sim-want) > fig7Tolerance*want {
			problems = append(problems, fmt.Sprintf("Pr(%d) = %v, analytical %v", n, sim, want))
		}
	}
	return problems
}

// compareFig7 returns how a traced Fig 7 run differs from the plain one,
// given the iterations the traced run's progress boundary counted.
func compareFig7(plain, traced *buckets.ShardedResult, counted uint64) []string {
	var problems []string
	if !reflect.DeepEqual(plain.Histogram(), traced.Histogram()) || plain.Iterations != traced.Iterations {
		problems = append(problems, "traced histogram differs from the plain run")
	}
	if counted != plain.Iterations {
		problems = append(problems, fmt.Sprintf("progress boundary counted %d iterations, the result reports %d", counted, plain.Iterations))
	}
	return problems
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
