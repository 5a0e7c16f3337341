// Command attacksim runs the paper's attack experiments: the Fig 8 LLC
// occupancy attack (distinguishing two AES keys and two modular-
// exponentiation keys through the cache-occupancy channel on a 16-way
// set-associative cache, the Maya cache, and a fully-associative cache),
// and an eviction-set construction comparison across designs.
//
// Usage:
//
//	attacksim -experiment fig8 [-runs 5] [-max 20000] [-sets 64]
//	attacksim -experiment evictionset
//
// Each experiment is an entry of the experiments figure table, run by
// experiments.Session under the resilient harness: a failed cell renders
// as FAILED rows and is reported in the final failure summary (exit 1).
// Invalid flags exit 2 before any simulation runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"mayacache/internal/experiments"
	"mayacache/internal/harness"
)

func main() {
	os.Exit(run())
}

// validExperiments are the names of attacksim's entries plus "all".
var validExperiments = append(experiments.Names(experiments.AttackFigures(experiments.AttackSpec{})), "all")

// validate enforces the usage contract; any error here exits 2.
func validate(exp string, spec experiments.AttackSpec) error {
	switch {
	case !slices.Contains(validExperiments, exp):
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(validExperiments, ", "))
	case spec.Workers < 1:
		return fmt.Errorf("-workers must be >= 1, got %d", spec.Workers)
	case spec.Sets < 2 || spec.Sets&(spec.Sets-1) != 0:
		return fmt.Errorf("-sets must be a power of two >= 2, got %d", spec.Sets)
	case spec.Runs < 1:
		return fmt.Errorf("-runs must be >= 1, got %d", spec.Runs)
	case spec.Max < 1:
		return fmt.Errorf("-max must be >= 1, got %d", spec.Max)
	case spec.Noise < 0:
		return fmt.Errorf("-noise must be >= 0, got %d", spec.Noise)
	}
	return nil
}

func run() int {
	var spec experiments.AttackSpec
	exp := flag.String("experiment", "all", strings.Join(validExperiments, "|"))
	flag.IntVar(&spec.Runs, "runs", 3, "attack repetitions (median reported)")
	flag.IntVar(&spec.Max, "max", 20000, "max encryptions per attack")
	flag.IntVar(&spec.Sets, "sets", 64, "cache sets (scale knob; 64 = 256KB-class caches)")
	flag.IntVar(&spec.Noise, "noise", 16, "background noise accesses per sample")
	flag.Uint64Var(&spec.Seed, "seed", 1, "seed")
	flag.IntVar(&spec.Workers, "workers", 1, "worker pool width for attack repetitions (1 = historical serial run; never affects results)")
	flag.Parse()
	if err := validate(*exp, spec); err != nil {
		fmt.Fprintf(os.Stderr, "attacksim: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := harness.New(harness.Options{Workers: 1})
	sess := experiments.NewSession(runner)
	for _, f := range experiments.Select(experiments.AttackFigures(spec), *exp) {
		rep, _ := sess.Run(ctx, f)
		experiments.Write(os.Stdout, rep, false)
	}
	return experiments.Exit(os.Stderr, "attacksim", runner, ctx.Err() != nil)
}
