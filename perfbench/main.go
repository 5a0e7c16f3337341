// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three real-consumer workloads (a Fig 9 cell, the Fig 8 occupancy
// attack, the Fig 7 bucket model), checks the simulated outputs, and
// prints every metric by name and unit; the last line of standard output
// is one JSON object. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig9-mcf8 --seed 1 --seconds 30 --trace 0
//
// Each repetition runs in a fresh child process (the binary re-executed
// with -child), so repetitions share no memoized state, heap or warm
// caches, set-up is paid and measured every time, and peak RSS is per
// repetition. The parent repeats until --seconds is spent (at least
// minReps times) and reports medians.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hangMargin is how long past its budget a run may go before a hung
// repetition is killed: with a 30 s budget a run always ends within 170 s.
const hangMargin = 140 * time.Second

// workload is one benchmark input: a function that runs one repetition
// in the current process.
type workload struct {
	name string
	// unit names the work that work_per_s counts, with the divisor the
	// human-readable report applies (simulated instructions are printed
	// in millions, as sim_minstr_per_s).
	unitMetric string
	unitScale  float64
	run        func(ctx context.Context, env *runEnv) (*repResult, error)
}

var workloads = []workload{
	{"fig9-mcf8", "sim_minstr_per_s", 1e6, runFig9},
	{"fig8-occupancy", "attack_samples_per_s", 1, runFig8},
	{"fig7-buckets", "mc_miters_per_s", 1e6, runFig7},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runEnv is what one repetition is given and what it reports through.
type runEnv struct {
	seed  uint64
	trace bool
	sc    scale
	// setupEnd and workEnd are wall-clock instants (Unix ns), so the
	// parent can measure from before it started this process.
	setupEnd, workEnd int64
	checks            checker
}

func (e *runEnv) markSetup()   { e.setupEnd = time.Now().UnixNano() }
func (e *runEnv) markWorkEnd() { e.workEnd = time.Now().UnixNano() }

// checker records operations (a design simulation, an attack trial, an
// MC shard) and the correctness checks that failed on them.
type checker struct {
	failed   []bool
	problems []string
}

// op registers one operation and returns its index.
func (c *checker) op() int {
	c.failed = append(c.failed, false)
	return len(c.failed) - 1
}

// fail marks the operations as failed with a reason.
func (c *checker) fail(ops []int, format string, args ...any) {
	for _, i := range ops {
		c.failed[i] = true
	}
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// repResult is what one repetition reports to the parent.
type repResult struct {
	MainStart int64              `json:"main_start_unix_ns"`
	SetupEnd  int64              `json:"setup_end_unix_ns"`
	WorkEnd   int64              `json:"work_end_unix_ns"`
	WorkS     float64            `json:"work_s"`
	Work      float64            `json:"work"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Digest    []string           `json:"digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// mainStart is when main began: process start, the Go runtime and every
// package's init lie before it.
var mainStart int64

func main() {
	mainStart = time.Now().UnixNano()
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		name    = flag.String("workload", "", "fig9-mcf8 | fig8-occupancy | fig7-buckets")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		child   = flag.Bool("child", false, "run one repetition and print its JSON report (internal)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (fig9-mcf8|fig8-occupancy|fig7-buckets), --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if *child {
		return runChild(w, *seed, *traced == 1)
	}
	if err := runParent(w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func runChild(w workload, seed uint64, traced bool) int {
	env := &runEnv{seed: seed, trace: traced, sc: benchScale}
	res, err := w.run(context.Background(), env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// finish fills the operation counts of a repetition from its checker.
func (e *runEnv) finish(res *repResult) *repResult {
	res.MainStart, res.SetupEnd, res.WorkEnd = mainStart, e.setupEnd, e.workEnd
	res.Attempted = len(e.checks.failed)
	for _, f := range e.checks.failed {
		if f {
			res.Failed++
		}
	}
	res.Problems = e.checks.problems
	return res
}

// rep is one child's report plus what the parent measured around it.
type rep struct {
	res     repResult
	start   int64 // Unix ns just before the child started
	elapsed time.Duration
	rssMB   float64
}

func spawnRep(ctx context.Context, w workload, seed uint64, traced bool) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("repetition of %s: %w", w.name, err)
	}
	r := rep{start: t0.UnixNano(), elapsed: time.Since(t0)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		return rep{}, fmt.Errorf("repetition of %s: bad report: %w", w.name, err)
	}
	if traced && r.res.Layers == nil {
		return rep{}, fmt.Errorf("repetition of %s: traced report without layers", w.name)
	}
	return r, nil
}

// minReps is the fewest repetitions a run makes, whatever --seconds says.
func minReps(traced bool) int {
	if traced {
		return 1
	}
	return 3
}

func runParent(w workload, seed uint64, seconds float64, traced bool) error {
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), budget+hangMargin)
	defer cancel()
	var reps []rep
	var durs []float64
	for {
		r, err := spawnRep(ctx, w, seed, traced)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		durs = append(durs, r.elapsed.Seconds())
		next := time.Duration(median(durs) * float64(time.Second))
		if len(reps) >= minReps(traced) && time.Since(start)+next > budget {
			break
		}
	}
	report(os.Stdout, w, seed, traced, reps)
	return nil
}

// series collects one metric's per-repetition values.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func report(out io.Writer, w workload, seed uint64, traced bool, reps []rep) {
	empty, pair := clockFloor()
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v reps=%d\n", w.name, seed, traced, len(reps))
	fmt.Fprintf(out, "env cpus=%d GOMAXPROCS=%d go=%s clock_empty_span_ns=%.1f clock_pair_ns=%.1f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), empty, pair)

	correct := true
	attempted, failed := 0, 0
	digest := reps[0].res.Digest
	e2e, layers := series{}, series{}
	for i, r := range reps {
		attempted += r.res.Attempted
		failed += r.res.Failed
		for _, p := range r.res.Problems {
			correct = false
			fmt.Fprintf(out, "check failed (rep %d): %s\n", i, p)
		}
		if strings.Join(r.res.Digest, "\n") != strings.Join(digest, "\n") {
			correct = false
			fmt.Fprintf(out, "check failed (rep %d): simulated results differ from rep 0\n", i)
		}
		e2e.add("setup_s", float64(r.res.SetupEnd-r.start)/1e9)
		e2e.add("wall_s", float64(r.res.WorkEnd-r.start)/1e9)
		e2e.add("work_per_s", r.res.Work/r.res.WorkS)
		e2e.add("peak_rss_mb", r.rssMB)
		if traced {
			r.res.Layers["runtime.init_s"] = float64(r.res.MainStart-r.start) / 1e9
			for k, v := range r.res.Layers {
				layers.add(k, v)
			}
		}
	}
	if attempted < 1 || failed > 0 {
		correct = false
	}

	sum := sha256.Sum256([]byte(strings.Join(digest, "\n")))
	for _, line := range digest {
		fmt.Fprintf(out, "digest %s\n", line)
	}
	fmt.Fprintf(out, "digest sha256 %x\n", sum)

	show := func(name, unit string, vs []float64, scaleBy float64) {
		q1, med, q3 := quartiles(vs)
		fmt.Fprintf(out, "metric %-32s %14.6g %-6s (median of %d; q1 %.6g, q3 %.6g)\n",
			name, med/scaleBy, unit, len(vs), q1/scaleBy, q3/scaleBy)
	}
	for _, m := range endToEnd {
		show(m.name, m.unit, e2e[m.name], 1)
	}
	show(w.unitMetric, "1/s", e2e["work_per_s"], w.unitScale)
	fmt.Fprintf(out, "metric %-32s %14.6g %-6s (%d of %d operations)\n", "failed_frac",
		ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)

	values, defs := map[string]float64{}, endToEnd
	for _, m := range endToEnd {
		values[m.name] = median(e2e[m.name])
	}
	if traced {
		// Every per-layer figure comes from one repetition, the one with
		// the median traced wall time, so that the layer times and the
		// residual reported still add up to its layers.wall_s.
		k := medianRep(reps)
		values, defs = reps[k].res.Layers, perLayer
		for _, m := range perLayer {
			q1, _, q3 := quartiles(layers[m.name])
			fmt.Fprintf(out, "metric %-32s %14.6g %-6s (rep %d of %d; over all reps q1 %.6g, q3 %.6g)\n",
				m.name, values[m.name], m.unit, k, len(reps), q1, q3)
		}
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			correct = false
			fmt.Fprintf(out, "check failed: metric %s was not measured\n", m.name)
			continue
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	final, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only plain numbers, strings and maps
	}
	fmt.Fprintln(out, string(final))
}

// medianRep returns the index of the traced repetition with the median
// layers.wall_s (the lower middle one for an even count).
func medianRep(reps []rep) int {
	idx := make([]int, len(reps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return reps[idx[a]].res.Layers["layers.wall_s"] < reps[idx[b]].res.Layers["layers.wall_s"]
	})
	return idx[(len(idx)-1)/2]
}

// median returns the median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs,
// by the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Position p*(n+1), 1-based, clamped to the data.
		pos := p * float64(len(s)+1)
		if pos <= 1 {
			return s[0]
		}
		if pos >= float64(len(s)) {
			return s[len(s)-1]
		}
		i := int(pos)
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
