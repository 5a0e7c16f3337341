// Command overheads prints the paper's cost tables: the exact storage
// accounting of Table VIII, the P-CACTI-substitute energy/power/area
// estimates of Table IX, and the Table X summary combining security
// (analytical model), storage, and optionally simulated performance.
//
// Usage:
//
//	overheads -table storage|energy|summary|all [-perf]
//
// Each table is an entry of the experiments figure table, run by
// experiments.Session: a failed cell renders as FAILED rows and is
// reported in the final failure summary (exit 1). Invalid flags exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"mayacache/internal/experiments"
	"mayacache/internal/harness"
)

// validTables are the names of overheads' entries plus "all".
var validTables = append(experiments.Names(experiments.CostFigures(false, experiments.Scale{})), "all")

func main() {
	var (
		table  = flag.String("table", "all", strings.Join(validTables, "|"))
		perf   = flag.Bool("perf", false, "simulate SPEC homogeneous performance for Table X (slow)")
		warmup = flag.Uint64("warmup", 2_000_000, "warmup instructions per core for -perf (must be positive)")
		roi    = flag.Uint64("roi", 800_000, "ROI instructions per core for -perf (must be positive)")
		csv    = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "overheads: "+format+"\n", args...)
		os.Exit(2)
	}
	if !slices.Contains(validTables, *table) {
		fail("unknown table %q", *table)
	}
	if *warmup == 0 || *roi == 0 {
		fail("-warmup and -roi must be positive, got %d and %d", *warmup, *roi)
	}

	runner := harness.New(harness.Options{})
	sess := experiments.NewSession(runner)
	figs := experiments.CostFigures(*perf, experiments.Scale{WarmupInstr: *warmup, ROIInstr: *roi, Seed: 1})
	for _, f := range experiments.Select(figs, *table) {
		rep, _ := sess.Run(context.Background(), f)
		experiments.Write(os.Stdout, rep, *csv)
	}
	os.Exit(experiments.Exit(os.Stderr, "overheads", runner, false))
}
