// Command securitysim runs the paper's security experiments: the
// bucket-and-balls Monte-Carlo model and the analytical Birth-Death model
// (Figures 6 and 7, Tables I and IV, and the Section VI non-decoupled
// strawman).
//
// Usage:
//
//	securitysim -experiment fig7 [-buckets 16384] [-iters 100000000] [-shards 8]
//
// Experiments: fig6, fig7, table1, table4, nondecoupled, all.
//
// Monte-Carlo experiments run shard-parallel: the iteration budget splits
// into -shards independent streams executed on -workers CPUs. The shard
// count is part of the experiment definition (results are a pure function
// of seed, iterations, and shards; worker count never changes a number).
// The default, -shards 1, is the historical serial run that
// results/securitysim_all.txt records; -shards N trades reproducing that
// file for speed.
//
// Each experiment is an entry of the experiments figure table, run by
// experiments.Session under the resilient harness: a failed cell renders
// as FAILED rows and is reported in the final failure summary (exit 1)
// while the other experiments still produce their tables. Invalid flags
// exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"mayacache/internal/experiments"
	"mayacache/internal/harness"
	"mayacache/internal/mc"
	"mayacache/internal/pprofutil"
)

func main() {
	os.Exit(run())
}

// flags carries the parsed command line through validation.
type flags struct {
	exp      string
	buckets  int
	iters    uint64
	seed     uint64
	shards   int
	workers  int
	csv      bool
	progress string
}

// validExperiments are the names of securitysim's entries plus "all".
var validExperiments = append(experiments.Names(experiments.SecurityFigures(experiments.SecuritySpec{}, nil)), "all")

// validateFlags enforces the usage contract; any error here exits 2.
func validateFlags(f flags) error {
	if !slices.Contains(validExperiments, f.exp) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", f.exp, strings.Join(validExperiments, ", "))
	}
	if f.buckets < 1 {
		return fmt.Errorf("-buckets must be >= 1, got %d", f.buckets)
	}
	if f.iters == 0 {
		return fmt.Errorf("-iters must be positive")
	}
	if f.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", f.shards)
	}
	if uint64(f.shards) > f.iters {
		return fmt.Errorf("-shards %d exceeds -iters %d: a shard cannot run a fractional iteration", f.shards, f.iters)
	}
	if f.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", f.workers)
	}
	if !slices.Contains([]string{"auto", "on", "off"}, f.progress) {
		return fmt.Errorf("-progress must be auto, on or off, got %q", f.progress)
	}
	return nil
}

func run() int {
	var (
		f          flags
		cpuprofile string
		memprofile string
	)
	flag.StringVar(&f.exp, "experiment", "all", strings.Join(validExperiments, "|"))
	flag.IntVar(&f.buckets, "buckets", 16384, "buckets per skew (16384 = paper scale)")
	flag.Uint64Var(&f.iters, "iters", 20_000_000, "Monte-Carlo iterations per configuration point")
	flag.Uint64Var(&f.seed, "seed", 1, "seed")
	flag.IntVar(&f.shards, "shards", 1, "independent Monte-Carlo streams (part of the experiment definition: 1 reproduces results/securitysim_all.txt, N trades that for speed)")
	flag.IntVar(&f.workers, "workers", runtime.GOMAXPROCS(0), "worker pool width (wall clock only, never results)")
	flag.BoolVar(&f.csv, "csv", false, "emit CSV")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	flag.StringVar(&f.progress, "progress", "auto", "live progress line on stderr: auto|on|off")
	flag.Parse()

	if err := validateFlags(f); err != nil {
		fmt.Fprintf(os.Stderr, "securitysim: %v\n", err)
		return 2
	}
	stopCPU, err := pprofutil.StartCPU(cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "securitysim: %v\n", err)
		return 2
	}
	defer stopCPU()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := harness.New(harness.Options{Workers: 1})
	var p progressLine
	var progress func(name string, total uint64) *mc.Tracker
	if f.progress == "on" || (f.progress == "auto" && stderrIsTerminal()) {
		progress = p.tracker
	}
	spec := experiments.SecuritySpec{Buckets: f.buckets, Iters: f.iters, Seed: f.seed, Shards: f.shards, Workers: f.workers}
	sess := experiments.NewSession(runner)
	for _, fig := range experiments.Select(experiments.SecurityFigures(spec, progress), f.exp) {
		rep, _ := sess.Run(ctx, fig)
		p.clear()
		experiments.Write(os.Stdout, rep, f.csv)
	}

	if err := pprofutil.WriteHeap(memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "securitysim: %v\n", err)
		return 2
	}
	return experiments.Exit(os.Stderr, "securitysim", runner, ctx.Err() != nil)
}

// stderrIsTerminal reports whether stderr is a character device, the
// -progress auto heuristic: pipes and files stay clean for diffing.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// progressLine draws each Monte-Carlo experiment's iteration count on
// stderr. Updates are rate-limited so the tracker callback (invoked from
// every worker) stays cheap.
type progressLine struct {
	mu    sync.Mutex
	last  time.Time
	width int
}

// tracker returns the iteration tracker of the experiment name.
func (p *progressLine) tracker(name string, total uint64) *mc.Tracker {
	return mc.NewTracker(total, func(done, total uint64) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if now := time.Now(); done == total || now.Sub(p.last) >= 250*time.Millisecond {
			p.last, p.width = now, len(name)+48
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d iterations (%.1f%%) ", name, done, total, 100*float64(done)/float64(total))
		}
	})
}

// clear erases the line after an experiment.
func (p *progressLine) clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.width > 0 {
		fmt.Fprintf(os.Stderr, "\r%*s\r", p.width, "")
		p.width = 0
	}
}
