package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mayacache/internal/analytic"
	"mayacache/internal/attack"
	"mayacache/internal/cachemodel"
	"mayacache/internal/experiments"
	"mayacache/internal/trace"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	warmup: 20_000, roi: 10_000, cores: 2,
	sets: 16, runs: 1, max: 40, noise: 4, capture: 1 << 12,
	buckets: 256, iters: 100_000,
}

// declared is BENCHMARK.json's metric declarations.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func unitsOf(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	for _, c := range []struct {
		what string
		got  map[string]string
		want []struct{ Name, Unit string }
	}{{"end_to_end", unitsOf(endToEnd), d.EndToEnd}, {"per_layer", unitsOf(perLayer), d.PerLayer}} {
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: program emits %v, BENCHMARK.json declares %v", c.what, c.got, want)
		}
	}
	var names []string
	for _, w := range d.Workload {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: program has %v, BENCHMARK.json declares %v", ours, names)
	}
}

// runTiny runs one repetition of w in-process at tinyScale, traced.
func runTiny(t *testing.T, w workload) (*repResult, rep) {
	t.Helper()
	start := time.Now()
	env := &runEnv{seed: 1, trace: true, sc: tinyScale}
	res, err := w.run(context.Background(), env)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res, rep{res: *res, start: start.UnixNano(), elapsed: time.Since(start), rssMB: 1}
}

// finalLine parses the last line report prints.
func finalLine(t *testing.T, out string) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v struct {
		Correct   bool
		Attempted int
		Failed    *int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if v.Attempted < 1 || v.Failed == nil {
		t.Fatalf("last line %q lacks attempted/failed", lines[len(lines)-1])
	}
	return v.Correct, v.Metrics
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, w := range workloads {
		res, r := runTiny(t, w)
		// Fig 7's analytical agreement needs the full model size; the
		// other workloads must pass every check even at tiny scale.
		if w.name != "fig7-buckets" && len(res.Problems) > 0 {
			t.Errorf("%s: checks failed at tiny scale: %v", w.name, res.Problems)
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			report(&out, w, 1, traced, []rep{r})
			_, metrics := finalLine(t, out.String())
			want := unitsOf(endToEnd)
			if traced {
				want = unitsOf(perLayer)
			}
			got := map[string]string{}
			for name, m := range metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, want %v", w.name, traced, got, want)
			}
		}
	}
}

func TestReportRejectsDifferingDigests(t *testing.T) {
	w, _ := findWorkload("fig8-occupancy")
	_, r := runTiny(t, w)
	other := r
	other.res.Digest = append([]string{"perturbed"}, r.res.Digest...)
	var out bytes.Buffer
	report(&out, w, 1, false, []rep{r, other})
	if correct, _ := finalLine(t, out.String()); correct {
		t.Error("report accepted repetitions whose simulated results differ")
	}
}

// tinyFig9 runs one traced Maya mix at tinyScale.
func tinyFig9(t *testing.T) (*tracedRun, experiments.Scale) {
	t.Helper()
	sc := experiments.Scale{WarmupInstr: tinyScale.warmup, ROIInstr: tinyScale.roi, Seed: 1}
	run, err := simulateTraced(context.Background(), experiments.DesignMaya, fig9Options(tinyScale.cores, 1), sc)
	if err != nil {
		t.Fatal(err)
	}
	return run, sc
}

func TestFig9PrivateReplayDetectsPerturbedStream(t *testing.T) {
	run, sc := tinyFig9(t)
	p := trace.MustLookup(fig9Bench)
	check := func(stream []cachemodel.Access) []string {
		c := &coreCursor{run: run, stream: stream, core: 0}
		fr, err := replayFront(p, 0, sc, run.gens[0].n, []*coreCursor{c})
		if err != nil {
			t.Fatal(err)
		}
		return fr.problems
	}
	own := coreStream(run.rec.stream, 0)
	if probs := check(own); len(probs) > 0 {
		t.Fatalf("unperturbed stream: %v", probs)
	}
	for name, perturb := range map[string]func(s []cachemodel.Access) []cachemodel.Access{
		"flipped line":   func(s []cachemodel.Access) []cachemodel.Access { s[len(s)/2].Line ^= 1; return s },
		"missing access": func(s []cachemodel.Access) []cachemodel.Access { return s[:len(s)-1] },
		"extra access":   func(s []cachemodel.Access) []cachemodel.Access { return append(s, s[0]) },
	} {
		if probs := check(perturb(append([]cachemodel.Access(nil), own...))); len(probs) == 0 {
			t.Errorf("%s: perturbed stream passed the private replay check", name)
		}
	}
}

// coreStream is core's part of a captured stream.
func coreStream(stream []cachemodel.Access, core uint8) []cachemodel.Access {
	var out []cachemodel.Access
	for _, a := range stream {
		if a.Core == core {
			out = append(out, a)
		}
	}
	return out
}

func TestFig9LLCStateDetectsPerturbedReplay(t *testing.T) {
	run, _ := tinyFig9(t)
	fresh := func() cachemodel.LLC {
		c, err := experiments.NewLLCChecked(run.design, run.opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	good := fresh()
	replay(good, run.rec.stream, run.rec.resets)
	if err := sameState(run.rec.LLC, good); err != nil {
		t.Fatalf("exact replay: %v", err)
	}
	bad := fresh()
	s := run.rec.stream
	replay(bad, s[:len(s)-1], run.rec.resets)
	if err := sameState(run.rec.LLC, bad); err == nil {
		t.Error("replay missing its last access passed the state check")
	}
}

func TestFig9ChecksDetectPerturbedResults(t *testing.T) {
	env := &runEnv{seed: 1, trace: true, sc: tinyScale}
	sc := experiments.Scale{WarmupInstr: tinyScale.warmup, ROIInstr: tinyScale.roi, Seed: 1}
	mix := []string{fig9Bench, fig9Bench}
	designs := experiments.AllDesigns()
	plain := make([]experiments.MixResult, len(designs))
	ops := make([]int, len(designs)+1)
	for i, d := range designs {
		r, err := experiments.RunMixDesignCtx(context.Background(), fig9Bench, mix, d, sc)
		if err != nil {
			t.Fatal(err)
		}
		plain[i] = r
	}
	for i := range ops {
		ops[i] = env.checks.op()
	}
	for i := range plain {
		checkMix(&env.checks, ops[i], plain[i], 6)
	}
	if len(env.checks.problems) > 0 {
		t.Fatalf("unperturbed: %v", env.checks.problems)
	}

	perturbed := append([]experiments.MixResult(nil), plain...)
	perturbed[1].IPCs = append([]float64(nil), plain[1].IPCs...)
	perturbed[1].IPCs[0] = 0
	perturbed[2].LLCStats.Misses++
	var c checker
	for range ops {
		c.op()
	}
	for i := range perturbed {
		checkMix(&c, ops[i], perturbed[i], 6)
	}
	if !c.failed[1] || !c.failed[2] || c.failed[0] {
		t.Errorf("sanity checks on perturbed results: failed=%v problems=%v", c.failed, c.problems)
	}

	// The traced run must reproduce the plain results: a perturbed plain
	// result must fail exactly its own design's operation.
	perturbed = append([]experiments.MixResult(nil), plain...)
	perturbed[0].WS += 1e-12
	if _, err := ledgerFig9(context.Background(), env, sc, designs, perturbed, ops); err != nil {
		t.Fatal(err)
	}
	if !env.checks.failed[0] || env.checks.failed[1] || env.checks.failed[2] {
		t.Errorf("traced-vs-plain check: failed=%v problems=%v", env.checks.failed, env.checks.problems)
	}
}

// fakeLLC overrides the counters and audit of a real cache.
type fakeLLC struct {
	cachemodel.LLC
	saes  uint64
	audit error
}

func (f fakeLLC) StatsSnapshot() cachemodel.Stats {
	s := f.LLC.StatsSnapshot()
	s.SAEs += f.saes
	return s
}

func (f fakeLLC) Audit() error { return f.audit }

func TestFig8ChecksDetectPerturbedTrials(t *testing.T) {
	designs := fig8Designs(tinyScale.sets)
	mayaD := designs[1]
	call := func(median float64, llc cachemodel.LLC) (*attackCall, *checker) {
		var c checker
		return &attackCall{
			design: mayaD, victims: fig8VictimPairs[0], median: median,
			trials: []trial{{seed: 1, llc: llc}}, ops: []int{c.op()},
		}, &c
	}
	real := mayaD.mk(1)
	for _, tc := range []struct {
		name   string
		median float64
		llc    cachemodel.LLC
		fails  bool
	}{
		{"clean", 10, real, false},
		{"median below 1", 0, real, true},
		{"median above max", float64(tinyScale.max + 1), real, true},
		{"SAE", 10, fakeLLC{LLC: real, saes: 1}, true},
		{"audit", 10, fakeLLC{LLC: real, audit: errors.New("broken")}, true},
	} {
		a, c := call(tc.median, tc.llc)
		checkAttack(c, a, tinyScale.max)
		if c.failed[0] != tc.fails {
			t.Errorf("%s: failed=%v problems=%v", tc.name, c.failed[0], c.problems)
		}
	}
}

func TestFig8TracedMedianMustMatch(t *testing.T) {
	env := &runEnv{seed: 1, trace: true, sc: tinyScale}
	keyA, keyB := attack.FindContrastingAESKeys(64, 16, 1)
	designs := fig8Designs(tinyScale.sets)
	var plain []*attackCall
	var c checker
	var samples uint64
	for _, d := range designs {
		for _, v := range fig8VictimPairs {
			call, err := runAttack(context.Background(), env, d, v, keyA, keyB, 0, &samples)
			if err != nil {
				t.Fatal(err)
			}
			for range call.trials {
				call.ops = append(call.ops, c.op())
			}
			plain = append(plain, call)
		}
	}
	plain[3].median++
	env.checks = c
	if _, err := ledgerFig8(context.Background(), env, designs, plain, samples, keyA, keyB); err != nil {
		t.Fatal(err)
	}
	for i, call := range plain {
		if env.checks.failed[call.ops[0]] != (i == 3) {
			t.Errorf("call %d: failed=%v problems=%v", i, env.checks.failed[call.ops[0]], env.checks.problems)
		}
	}
}

func TestFig7ChecksDetectPerturbedHistogram(t *testing.T) {
	d, err := analytic.Solve(9)
	if err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, 17)
	for n := range exact {
		exact[n] = d.Pr(n)
	}
	if p := checkHistogram(exact, d); len(p) > 0 {
		t.Fatalf("the analytical distribution fails: %v", p)
	}
	shifted := append([]float64(nil), exact...)
	shifted[fig7MaxN] *= 1 + 2*fig7Tolerance
	if len(checkHistogram(shifted, d)) == 0 {
		t.Error("histogram off by twice the tolerance passed")
	}
	moved := append([]float64(nil), exact...)
	moved[9] -= 0.001
	moved[10] += 0.002
	if len(checkHistogram(moved, d)) == 0 {
		t.Error("histogram summing to 1.001 passed")
	}

	spec := experiments.SecuritySpec{Buckets: tinyScale.buckets, Iters: tinyScale.iters, Seed: 1, Shards: fig7Shards, Workers: 1}
	a, err := experiments.Fig7(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if p := compareFig7(a, a, a.Iterations); len(p) > 0 {
		t.Fatalf("identical runs differ: %v", p)
	}
	spec.Seed = 2
	b, err := experiments.Fig7(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(compareFig7(a, b, a.Iterations)) == 0 {
		t.Error("runs with different seeds compared equal")
	}
	if len(compareFig7(a, a, a.Iterations-1)) == 0 {
		t.Error("a miscounted progress boundary passed")
	}
}
