// Command mayasim runs the paper's performance experiments (Figures 1, 4,
// 9, 10; Tables VII and XI; the Section V-B sensitivity studies) on the
// synthetic-trace multi-core simulator.
//
// Usage:
//
//	mayasim -experiment fig9 [-warmup 2000000] [-roi 1000000] [-seed 1]
//	        [-csv] [-checkpoint sweep.ckpt] [-timeout 10m] [-retries 2]
//	        [-workers N] [-serial]
//	        [-snapshot-dir DIR] [-snapshot-every N] [-grace 30s]
//
// Experiments: fig1, fig9, fig10, table7, fig4, table11, fitting, cores,
// llcsize (the entries of experiments.Figures), and all.
//
// Every experiment is a sweep of independent cells executed through the
// resilient harness: a panicking or failing cell is reported in the final
// failure summary (and its table row reads FAILED) while sibling cells
// complete. With -checkpoint, completed cells are appended to the named
// file and an interrupted run (Ctrl-C, kill, timeout) can be rerun with
// the same flags to resume, recomputing only the missing cells; resumed
// runs render byte-identical tables to uninterrupted ones. -timeout
// bounds each cell, not the whole run.
//
// With -snapshot-dir, resume becomes intra-cell: each in-flight cell
// keeps a durable, CRC-checked state file under the directory, refreshed
// every -snapshot-every simulator steps, and the first SIGINT/SIGTERM
// makes running cells save their exact simulator state and stop instead
// of discarding progress; the run is cancelled outright only after the
// -grace window elapses or a second, impatient signal arrives. A rerun
// with the same flags restores each saved cell mid-simulation and
// produces bit-identical results to an uninterrupted run. Snapshots are
// bound to their configuration: a rerun with a different seed, scale, or
// geometry rejects the stale state and exits 2 naming the mismatched
// field.
//
// Exit status: 0 when every cell of every requested experiment completed
// (including runs resumed from snapshots); 1 when interrupted or when
// cells failed; 2 on usage errors — flag misuse, invalid cache
// configurations (errors wrapping cachemodel.ErrBadConfig, meaning no
// simulation ran for those cells), or when the only failures were stale
// snapshots incompatible with the requested configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"mayacache/internal/experiments"
	"mayacache/internal/faults"
	"mayacache/internal/harness"
	"mayacache/internal/pprofutil"
	"mayacache/internal/snapshot"
)

// validExperiments are the figure table's names plus "all".
var validExperiments = append(experiments.Names(experiments.Figures(experiments.Scale{})), "all")

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("experiment", "all", "experiment to run: "+strings.Join(validExperiments, "|"))
		warmup     = flag.Uint64("warmup", 2_000_000, "warmup instructions per core (must be positive)")
		roi        = flag.Uint64("roi", 1_000_000, "measured instructions per core (must be positive)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables")
		serial     = flag.Bool("serial", false, "disable parallel configuration runs")
		workers    = flag.Int("workers", 0, "worker-pool width (0 = all CPUs but one; implies parallel)")
		timeout    = flag.Duration("timeout", 0, "per-cell timeout (0 disables)")
		retries    = flag.Int("retries", 0, "retries for cells failing with transient errors")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint file: completed cells are appended and restored on rerun")
		fault      = flag.String("fault", "", "inject a fault into matching cells: panic:<substr> | error:<substr> | transient:<substr>:<k> | killsnap:<substr>:<n>")
		snapDir    = flag.String("snapshot-dir", "", "directory for durable mid-cell simulator state; enables intra-cell resume and snapshot-on-signal")
		snapEvery  = flag.Uint64("snapshot-every", 0, "periodic auto-snapshot cadence in simulator steps (requires -snapshot-dir; 0 saves only on signal)")
		grace      = flag.Duration("grace", 30*time.Second, "how long the first signal waits for cell snapshots to save before cancelling (0 cancels immediately)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "mayasim: "+format+"\n", args...)
		return 2
	}
	stopCPU, err := pprofutil.StartCPU(*cpuprofile)
	if err != nil {
		return fail("%v", err)
	}
	defer stopCPU()
	defer func() {
		if err := pprofutil.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "mayasim: %v\n", err)
		}
	}()
	if *warmup == 0 {
		return fail("-warmup must be positive: a cold-cache ROI measures fill traffic, not steady state")
	}
	if *roi == 0 {
		return fail("-roi must be positive: zero measured instructions produce no statistics")
	}
	if *workers < 0 {
		return fail("-workers must be >= 0 (got %d)", *workers)
	}
	if *retries < 0 {
		return fail("-retries must be >= 0 (got %d)", *retries)
	}
	if *timeout < 0 {
		return fail("-timeout must be >= 0 (got %v)", *timeout)
	}
	if *serial && *workers > 1 {
		return fail("-serial contradicts -workers %d: pick one", *workers)
	}
	if !slices.Contains(validExperiments, *exp) {
		msg := fmt.Sprintf("unknown experiment %q", *exp)
		if sug := suggestExperiments(*exp); len(sug) > 0 {
			msg += fmt.Sprintf(" (did you mean %v?)", sug)
		}
		return fail("%s; valid experiments: %v", msg, validExperiments)
	}
	if *snapEvery > 0 && *snapDir == "" {
		return fail("-snapshot-every %d without -snapshot-dir: periodic snapshots need somewhere durable to live", *snapEvery)
	}
	if *grace < 0 {
		return fail("-grace must be >= 0 (got %v)", *grace)
	}
	killHook, err := faults.KillOnSave(*fault, nil)
	if err != nil {
		return fail("%v", err)
	}
	if killHook != nil && *snapDir == "" {
		return fail("-fault %s fires on snapshot saves; it needs -snapshot-dir (and usually -snapshot-every)", *fault)
	}
	var hook func(key string) error
	if killHook == nil {
		hook, err = faults.ParseHook(*fault)
		if err != nil {
			return fail("%v", err)
		}
	}
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return fail("creating -snapshot-dir: %v", err)
		}
	}

	var cp *harness.Checkpoint
	if *checkpoint != "" {
		cp, err = harness.OpenCheckpoint(*checkpoint)
		if err != nil {
			return fail("%v", err)
		}
		defer cp.Close()
	}
	poolWorkers := *workers
	if *serial {
		poolWorkers = 1
	}
	var trig *snapshot.Trigger
	if *snapDir != "" {
		trig = new(snapshot.Trigger)
	}
	runner := harness.New(harness.Options{
		Workers:         poolWorkers,
		CellTimeout:     *timeout,
		Retries:         *retries,
		Seed:            *seed,
		Checkpoint:      cp,
		PreRun:          hook,
		SnapshotDir:     *snapDir,
		SnapshotEvery:   *snapEvery,
		SnapshotTrigger: trig,
		SnapshotOnSave:  killHook,
	})

	ctx, cancel := harness.NotifyShutdown(context.Background(), trig, *grace,
		func(msg string) { fmt.Fprintln(os.Stderr, "mayasim: "+msg) })
	defer cancel()

	sess := experiments.NewSession(runner)
	figures := experiments.Figures(experiments.Scale{WarmupInstr: *warmup, ROIInstr: *roi, Seed: *seed})
	for _, f := range experiments.Select(figures, *exp) {
		rep, _ := sess.Run(ctx, f)
		experiments.Write(os.Stdout, rep, *csv)
	}

	interrupted := ctx.Err() != nil || trig.Fired()
	code := experiments.Exit(os.Stderr, "mayasim", runner, interrupted)
	if interrupted {
		switch {
		case trig.Fired() && *checkpoint != "":
			fmt.Fprintf(os.Stderr, "mayasim: cell snapshots saved under %s; rerun the same command to resume mid-cell from %s\n", *snapDir, *checkpoint)
		case *checkpoint != "":
			fmt.Fprintf(os.Stderr, "mayasim: rerun the same command to resume from %s\n", *checkpoint)
		default:
			fmt.Fprintln(os.Stderr, "mayasim: rerun with -checkpoint FILE to make interrupted sweeps resumable")
		}
	}
	return code
}

// suggestExperiments returns valid experiment names within edit distance 2
// of the (unknown) input, closest first.
func suggestExperiments(name string) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, v := range validExperiments {
		if d := editDistance(name, v); d <= 2 {
			cands = append(cands, cand{v, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
