package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/experiments"
	"mayacache/internal/metrics"
	"mayacache/internal/trace"
)

// scale sizes every workload; benchScale is what the benchmark runs and
// the self-test uses a tiny one.
type scale struct {
	// fig9-mcf8: per-core warmup and ROI instructions, core count.
	warmup, roi uint64
	cores       int
	// fig8-occupancy: attacksim's -sets, -runs, -max and -noise, and the
	// accesses captured per trial for the replay.
	sets, runs, max, noise int
	capture                int
	// fig7-buckets: securitysim's -buckets and -iters.
	buckets int
	iters   uint64
}

// benchScale: the Fig 9 cell at mayasim's default scale, the Fig 8
// attack at a reduced -max with EXPERIMENTS.md's noise, Fig 7 at half of
// EXPERIMENTS.md's iterations. Each repetition takes a few seconds.
var benchScale = scale{
	warmup: 1_000_000, roi: 500_000, cores: 8,
	sets: 64, runs: 3, max: 250, noise: 48, capture: 1 << 20,
	buckets: 16384, iters: 10_000_000,
}

// fig9Bench is the benchmark of the homogeneous mix.
const fig9Bench = "mcf"

// fig9Options is how experiments.RunMixDesignCtx builds a mix's LLC.
func fig9Options(cores int, seed uint64) experiments.LLCOptions {
	return experiments.LLCOptions{Cores: cores, Seed: seed, FastHash: true}
}

func runFig9(ctx context.Context, env *runEnv) (*repResult, error) {
	sc := experiments.Scale{WarmupInstr: env.sc.warmup, ROIInstr: env.sc.roi, Seed: env.seed}
	cores := env.sc.cores
	mix := make([]string, cores)
	for i := range mix {
		mix[i] = fig9Bench
	}
	designs := experiments.AllDesigns()

	// Set-up: the LLCs, as RunMixDesignCtx would build them.
	llcs := make([]cachemodel.LLC, len(designs))
	for i, d := range designs {
		llc, err := experiments.NewLLCChecked(d, fig9Options(cores, env.seed))
		if err != nil {
			return nil, err
		}
		llcs[i] = llc
	}
	quiesce()
	env.markSetup()

	gc := readGC()
	start := time.Now()
	plain := make([]experiments.MixResult, len(designs))
	for i, d := range designs {
		r, err := experiments.RunMixLLCCtx(ctx, fig9Bench, mix, d, llcs[i], sc)
		if err != nil {
			return nil, err
		}
		plain[i] = r
	}
	workS := time.Since(start)
	env.markWorkEnd()
	gcCycles, allocMB := gc.since()

	// One operation per design simulation, plus the alone-IPC run.
	ops := make([]int, len(designs)+1)
	for i := range ops {
		ops[i] = env.checks.op()
	}
	alone, err := experiments.AloneIPCCtx(ctx, fig9Bench, sc) // memoized by the first design
	if err != nil {
		return nil, err
	}
	width := float64(cachesim.DefaultCoreParams().IssueWidth)
	if !(alone > 0 && alone <= width) {
		env.checks.fail(ops[len(designs):], "alone IPC %v outside (0, %v]", alone, width)
	}
	digest := []string{fmt.Sprintf("alone_ipc %v", alone)}
	for i, r := range plain {
		checkMix(&env.checks, ops[i], r, width)
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		digest = append(digest, string(b))
	}

	res := &repResult{
		WorkS:  workS.Seconds(),
		Work:   float64((sc.WarmupInstr + sc.ROIInstr) * uint64(cores*len(designs)+1)),
		Digest: digest,
	}
	if env.trace {
		l, err := ledgerFig9(ctx, env, sc, designs, plain, ops)
		if err != nil {
			return nil, err
		}
		l["trace.overhead_frac"] = l["layers.wall_s"]/workS.Seconds() - 1
		l["runtime.gc_cycles"], l["runtime.alloc_mb"] = gcCycles, allocMB
		res.Layers = withAllLayers(l)
	}
	return env.finish(res), nil
}

// checkMix applies the sanity checks to one design's result: every IPC
// in (0, issue width] and LLC counters that conserve accesses.
func checkMix(c *checker, op int, r experiments.MixResult, width float64) {
	for core, ipc := range r.IPCs {
		if !(ipc > 0 && ipc <= width) {
			c.fail([]int{op}, "%s core %d IPC %v outside (0, %v]", r.Design, core, ipc, width)
		}
	}
	s := r.LLCStats
	if s.Accesses != s.Reads+s.Writebacks || s.Accesses != s.DataHits+s.Misses {
		c.fail([]int{op}, "%s LLC stats do not conserve: accesses %d, reads %d + writebacks %d, data hits %d + misses %d",
			r.Design, s.Accesses, s.Reads, s.Writebacks, s.DataHits, s.Misses)
	}
	if math.IsNaN(r.WS) || r.WS <= 0 {
		c.fail([]int{op}, "%s weighted speedup %v", r.Design, r.WS)
	}
}

// gcMark is a reading of the runtime's GC counters.
type gcMark struct{ cycles, alloc uint64 }

func readGC() gcMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcMark{uint64(m.NumGC), m.TotalAlloc}
}

// since returns GC cycles and MB allocated since the mark.
func (g gcMark) since() (cycles, allocMB float64) {
	now := readGC()
	return float64(now.cycles - g.cycles), float64(now.alloc-g.alloc) / (1 << 20)
}

// countingGen counts the events a generator hands the simulator.
type countingGen struct {
	trace.Generator
	n uint64
}

func (g *countingGen) Next() trace.Event {
	g.n++
	return g.Generator.Next()
}

// tracedRun is one simulation run with its LLC stream captured.
type tracedRun struct {
	design experiments.Design
	opts   experiments.LLCOptions
	rec    *recorder
	gens   []*countingGen
	res    cachesim.Results
	wall   time.Duration
	build  time.Duration
}

// simulateTraced runs one mix the way experiments' runMixCtx does, with
// the generators and the LLC wrapped so the streams crossing into them
// are counted and captured.
func simulateTraced(ctx context.Context, d experiments.Design, opts experiments.LLCOptions, sc experiments.Scale) (*tracedRun, error) {
	t := time.Now()
	llc, err := experiments.NewLLCChecked(d, opts)
	if err != nil {
		return nil, err
	}
	run := &tracedRun{design: d, opts: opts, build: time.Since(t), rec: newRecorder(llc, math.MaxInt)}
	p, err := trace.Lookup(fig9Bench)
	if err != nil {
		return nil, err
	}
	gens := make([]trace.Generator, opts.Cores)
	for i := range gens {
		g, err := trace.NewGenerator(p, i, sc.Seed)
		if err != nil {
			return nil, err
		}
		cg := &countingGen{Generator: g}
		run.gens = append(run.gens, cg)
		gens[i] = cg
	}
	dram := cachesim.DefaultDRAMConfig()
	dram.Channels = max((opts.Cores+3)/4, 1) // 2 channels per 8 cores, as experiments does
	sys := cachesim.New(cachesim.Config{
		Cores: opts.Cores,
		Core:  cachesim.DefaultCoreParams(),
		LLC:   run.rec,
		DRAM:  dram,
		Seed:  sc.Seed,
	}, gens)
	quiesce()
	t = time.Now()
	run.res, err = cachesim.Run(ctx, sys, cachesim.RunSpec{Warmup: sc.WarmupInstr, ROI: sc.ROIInstr})
	run.wall = time.Since(t)
	return run, err
}

// ledgerFig9 is the traced run of fig9-mcf8. It repeats the cell with
// every LLC stream captured, checks that it reproduces the plain results,
// then replays each layer alone: fresh generators for the captured event
// counts, fresh private L1D/L2 fed by those events (which must emit
// exactly the captured LLC-bound stream), and fresh LLCs fed the captured
// LLC streams (whose final state must equal the in-run LLC's). Whatever
// the replays do not cover is the cachesim residual.
func ledgerFig9(ctx context.Context, env *runEnv, sc experiments.Scale, designs []experiments.Design,
	plain []experiments.MixResult, ops []int) (map[string]float64, error) {
	cores := env.sc.cores
	var runs []*tracedRun
	for _, d := range designs {
		r, err := simulateTraced(ctx, d, fig9Options(cores, env.seed), sc)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	alone, err := simulateTraced(ctx, experiments.DesignBaseline, experiments.LLCOptions{Cores: 1, Seed: env.seed}, sc)
	if err != nil {
		return nil, err
	}
	runs = append(runs, alone)

	// The traced run must reproduce the plain run's results exactly.
	aloneIPC := alone.res.Cores[0].IPC
	for i, r := range runs[:len(designs)] {
		ipcs := make([]float64, len(r.res.Cores))
		solo := make([]float64, len(r.res.Cores))
		for c, cr := range r.res.Cores {
			ipcs[c], solo[c] = cr.IPC, aloneIPC
		}
		ws, err := metrics.WeightedSpeedup(ipcs, solo)
		if err != nil {
			return nil, err
		}
		got := experiments.MixResult{Mix: fig9Bench, Design: r.design, WS: ws, MPKI: r.res.MPKI(), IPCs: ipcs, LLCStats: r.res.LLCStats}
		if !reflect.DeepEqual(got, plain[i]) {
			env.checks.fail([]int{ops[i]}, "%s: traced results differ from the plain run", r.design)
		}
	}

	l := map[string]float64{}
	var wall, build time.Duration
	for i, r := range runs {
		wall += r.wall
		build += r.build
		if r.rec.other != 0 {
			env.checks.fail([]int{ops[i]}, "%s: %d Flush/Probe calls the replay does not reproduce", r.design, r.rec.other)
		}
		for _, g := range r.gens {
			l["trace.events"] += float64(g.n)
		}
	}

	// Private hierarchy and generator: each core's front is independent
	// of the LLC, so it is replayed once and charged to every run that
	// includes the core (all three designs, plus the alone run for core 0).
	p, err := trace.Lookup(fig9Bench)
	if err != nil {
		return nil, err
	}
	var genT, privT time.Duration
	var privAcc, l1Hit, l1Acc, l2Hit, l2Acc float64
	for core := 0; core < cores; core++ {
		var cursors []*coreCursor
		events := runs[0].gens[core].n
		for i, r := range runs {
			if core < len(r.gens) {
				cursors = append(cursors, &coreCursor{run: r, stream: r.rec.stream, core: uint8(core)})
				if n := r.gens[core].n; n != events {
					env.checks.fail([]int{ops[i]}, "%s: core %d consumed %d events, the %s run %d", r.design, core, n, runs[0].design, events)
				}
			}
		}
		fr, err := replayFront(p, core, sc, events, cursors)
		if err != nil {
			return nil, err
		}
		for _, prob := range fr.problems {
			env.checks.fail(ops, "core %d: %s", core, prob)
		}
		n := time.Duration(len(cursors))
		genT += fr.gen * n
		privT += fr.priv * n
		privAcc += float64(fr.accesses) * float64(n)
		l1Hit += float64(fr.l1.DataHits) * float64(n)
		l1Acc += float64(fr.l1.Accesses) * float64(n)
		l2Hit += float64(fr.l2.DataHits) * float64(n)
		l2Acc += float64(fr.l2.Accesses) * float64(n)
	}

	// LLCs: replay each captured stream into a fresh design.
	llcT := map[string]time.Duration{}
	llcN := map[string]uint64{}
	for i, r := range runs {
		fresh, err := experiments.NewLLCChecked(r.design, r.opts)
		if err != nil {
			return nil, err
		}
		layer := llcLayer[r.design]
		llcT[layer] += replay(fresh, r.rec.stream, r.rec.resets)
		llcN[layer] += r.rec.count
		if err := sameState(r.rec.LLC, fresh); err != nil {
			env.checks.fail([]int{ops[i]}, "%s: replayed LLC: %v", r.design, err)
		}
		runs[i] = nil // release its LLC and stream before the next replay
	}

	var llcTotal time.Duration
	for layer, t := range llcT {
		l[layer+"accesses"] = float64(llcN[layer])
		l[layer+"ns_per_access"] = nsPer(t, llcN[layer])
		l[layer+"s"] = t.Seconds()
		llcTotal += t
	}
	l["trace.ns_per_event"] = ratio(float64(genT), l["trace.events"])
	l["trace.s"] = genT.Seconds()
	l["baseline.private_accesses"] = privAcc
	l["baseline.private_ns_per_access"] = ratio(float64(privT), privAcc)
	l["baseline.private_s"] = privT.Seconds()
	l["baseline.l1d_hit_rate"] = ratio(l1Hit, l1Acc)
	l["baseline.l2_hit_rate"] = ratio(l2Hit, l2Acc)
	self := wall - genT - privT - llcTotal
	l["layers.wall_s"] = wall.Seconds()
	l["cachesim.self_s"] = self.Seconds()
	l["cachesim.self_share"] = ratio(self.Seconds(), wall.Seconds())
	l["cachemodel.build_s"] = build.Seconds()
	return l, nil
}

// llcLayer maps a design to the prefix of its LLC layer metrics.
var llcLayer = map[experiments.Design]string{
	experiments.DesignBaseline: "baseline.llc_",
	experiments.DesignMirage:   "mirage.",
	experiments.DesignMaya:     "core.",
}

// sameState resets both caches' counters and compares their encoded
// state byte for byte.
func sameState(inRun, replayed cachemodel.LLC) error {
	inRun.ResetStats()
	replayed.ResetStats()
	a, err := stateBytes(inRun)
	if err != nil {
		return err
	}
	b, err := stateBytes(replayed)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("state differs from the in-run LLC (%d vs %d bytes)", len(b), len(a))
	}
	return nil
}

// coreCursor walks one core's part of a run's captured LLC stream.
type coreCursor struct {
	run    *tracedRun
	stream []cachemodel.Access
	core   uint8
	pos    int
}

func (c *coreCursor) next() (cachemodel.Access, bool) {
	for c.pos < len(c.stream) {
		a := c.stream[c.pos]
		c.pos++
		if a.Core == c.core {
			return a, true
		}
	}
	return cachemodel.Access{}, false
}

// frontReplay is the outcome of replaying one core's generator and
// private caches.
type frontReplay struct {
	gen, priv time.Duration
	accesses  uint64           // L1D plus L2 accesses, warmup included
	l1, l2    cachemodel.Stats // ROI counters
	problems  []string
}

// replayChunk is how many events are generated, then walked through the
// private caches, per timed span.
const replayChunk = 1 << 16

// replayFront regenerates core's events with a fresh generator, walks
// them through fresh private caches built as cachesim builds them, and
// compares the LLC-bound accesses they emit with each cursor's captured
// stream. Generation and the walk are timed per chunk, never per event.
func replayFront(p trace.Profile, core int, sc experiments.Scale, events uint64, cursors []*coreCursor) (*frontReplay, error) {
	gen, err := trace.NewGenerator(p, core, sc.Seed)
	if err != nil {
		return nil, err
	}
	cp := cachesim.DefaultCoreParams()
	l1, err := baseline.NewChecked(baseline.Config{
		Sets: cp.L1DSets, Ways: cp.L1DWays, Replacement: baseline.LRU,
		Seed: sc.Seed + uint64(core)*2 + 1, NamePrefix: fmt.Sprintf("L1D[%d]", core),
	})
	if err != nil {
		return nil, err
	}
	l2, err := baseline.NewChecked(baseline.Config{
		Sets: cp.L2Sets, Ways: cp.L2Ways, Replacement: baseline.LRU,
		Seed: sc.Seed + uint64(core)*2 + 2, NamePrefix: fmt.Sprintf("L2[%d]", core),
	})
	if err != nil {
		return nil, err
	}
	fr := &frontReplay{}
	buf := make([]trace.Event, replayChunk)
	out := make([]cachemodel.Access, 0, 2*replayChunk)
	var retired uint64
	target, warm := sc.WarmupInstr, true
	id := uint8(core)
	var done, finishedAt uint64
	quiesce()
	for done < events {
		n := min(uint64(replayChunk), events-done)
		t := time.Now()
		for j := range buf[:n] {
			buf[j] = gen.Next()
		}
		fr.gen += time.Since(t)

		out = out[:0]
		t = time.Now()
		for j, ev := range buf[:n] {
			out = walkPrivate(l1, l2, id, ev, out)
			retired += uint64(ev.Gap) + 1
			if retired >= target && finishedAt == 0 {
				if warm {
					fr.accesses += l1.StatsSnapshot().Accesses + l2.StatsSnapshot().Accesses
					l1.ResetStats()
					l2.ResetStats()
					target, warm = retired+sc.ROIInstr, false
				} else {
					finishedAt = done + uint64(j) + 1
				}
			}
		}
		fr.priv += time.Since(t)

		for _, c := range cursors {
			for k, want := range out {
				got, ok := c.next()
				if !ok || got != want {
					fr.problems = append(fr.problems, fmt.Sprintf(
						"%s run: private replay emits %+v at LLC-bound access %d of the chunk, the run captured %+v (present %v)",
						c.run.design, want, k, got, ok))
					return fr, nil
				}
			}
		}
		done += n
	}
	if finishedAt != events {
		fr.problems = append(fr.problems, fmt.Sprintf("replay reaches the ROI target at event %d, the run stopped after %d", finishedAt, events))
	}
	for _, c := range cursors {
		if a, ok := c.next(); ok {
			fr.problems = append(fr.problems, fmt.Sprintf("%s run captured LLC access %+v the private replay never emits", c.run.design, a))
		}
	}
	fr.l1, fr.l2 = l1.StatsSnapshot(), l2.StatsSnapshot()
	fr.accesses += fr.l1.Accesses + fr.l2.Accesses
	return fr, nil
}

// walkPrivate is cachesim's memory walk above the LLC with the
// prefetcher off (PrefetchConfig.Degree is 0 in every experiment): the
// access goes to the L1D, its dirty victims to the L2, and on an L1D
// miss the read goes to the L2. It appends the accesses that continue to
// the LLC, in the order the simulator issues them.
func walkPrivate(l1, l2 *baseline.SetAssoc, core uint8, ev trace.Event, out []cachemodel.Access) []cachemodel.Access {
	typ := cachemodel.Read
	if ev.Write {
		typ = cachemodel.Writeback
	}
	r1 := l1.Access(cachemodel.Access{Line: ev.Line, Type: typ, SDID: core, Core: core})
	for _, wb := range r1.Writebacks {
		r := l2.Access(cachemodel.Access{Line: wb.Line, Type: cachemodel.Writeback, SDID: wb.SDID, Core: core})
		for _, w := range r.Writebacks {
			out = append(out, cachemodel.Access{Line: w.Line, Type: cachemodel.Writeback, SDID: w.SDID, Core: core})
		}
	}
	if r1.DataHit {
		return out
	}
	acc := cachemodel.Access{Line: ev.Line, Type: cachemodel.Read, SDID: core, Core: core}
	r2 := l2.Access(acc)
	if r2.DataHit {
		return out
	}
	for _, w := range r2.Writebacks {
		out = append(out, cachemodel.Access{Line: w.Line, Type: cachemodel.Writeback, SDID: w.SDID, Core: core})
	}
	return append(out, acc)
}
