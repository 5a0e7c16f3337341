package main

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"mayacache/internal/attack"
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	maya "mayacache/internal/core"
	"mayacache/internal/prince"
)

// fig8Design is one cache under attack, defined exactly as attacksim's
// fig8Designs defines it: the design, its constructor and the size of
// the attacker's occupancy set.
type fig8Design struct {
	name      string
	layer     string // metric prefix of the design's layer
	mk        func(seed uint64) cachemodel.LLC
	occupancy int
	// secure designs must never see a set-associative eviction.
	secure bool
}

func fig8Designs(sets int) []fig8Design {
	capacity := sets * 16
	must := func(c cachemodel.LLC, err error) cachemodel.LLC {
		if err != nil {
			panic(err) // static geometry: only a bug fails here
		}
		return c
	}
	return []fig8Design{
		{"16-way SA", "baseline.sa_", func(seed uint64) cachemodel.LLC {
			return must(baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
		}, capacity, false},
		{"Maya", "core.", func(seed uint64) cachemodel.LLC {
			return must(maya.NewChecked(maya.Config{
				SetsPerSkew: sets, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6, Seed: seed,
			}))
		}, 2 * sets * 2 * 6, true},
		{"Fully associative", "baseline.fa_", func(seed uint64) cachemodel.LLC {
			return must(baseline.NewFullyAssociativeChecked(capacity, seed, true))
		}, 2 * capacity, true},
	}
}

// fig8Victims is one victim pair of Fig 8 with the seed of its trials,
// as attacksim's fig8 builds them.
type fig8Victims struct {
	name string
	seed func(base uint64) uint64
	mk   func(keyA, keyB [16]byte, c cachemodel.LLC) (attack.Victim, attack.Victim)
}

var fig8VictimPairs = []fig8Victims{
	{"AES", func(s uint64) uint64 { return s }, func(keyA, keyB [16]byte, c cachemodel.LLC) (attack.Victim, attack.Victim) {
		return attack.NewAESVictim(keyA, 1<<20, 16, attack.CacheToucher(c, 2)),
			attack.NewAESVictim(keyB, 1<<20, 16, attack.CacheToucher(c, 3))
	}},
	{"ModExp", func(s uint64) uint64 { return s + 77 }, func(_, _ [16]byte, c cachemodel.LLC) (attack.Victim, attack.Victim) {
		return attack.NewModExpVictim(1, 64, 1<<21, attack.CacheToucher(c, 2)),
			attack.NewModExpVictim(4, 64, 1<<21, attack.CacheToucher(c, 3))
	}},
}

// fig8Threshold is attacksim's Welch-t distinguishing threshold.
const fig8Threshold = 4.5

// countingVictim counts victim operations, one per occupancy sample.
type countingVictim struct {
	attack.Victim
	n *uint64
}

func (v countingVictim) Run() {
	*v.n++
	v.Victim.Run()
}

// trial is one attack trial's cache, as its mkCache call built it.
type trial struct {
	seed uint64
	llc  cachemodel.LLC // the cache the attack used
	rec  *recorder      // its capture, in the traced pass
}

// attackCall is one MedianDistinguishCtx call: a design and a victim pair.
type attackCall struct {
	design  fig8Design
	victims fig8Victims
	median  float64
	trials  []trial
	ops     []int
	wall    time.Duration
}

// runAttack runs one design against one victim pair as attacksim does,
// keeping each trial's cache; capture > 0 wraps each cache in a recorder.
func runAttack(ctx context.Context, env *runEnv, d fig8Design, v fig8Victims, keyA, keyB [16]byte, capture int, samples *uint64) (*attackCall, error) {
	call := &attackCall{design: d, victims: v}
	mk := func(seed uint64) cachemodel.LLC {
		t := trial{seed: seed, llc: d.mk(seed)}
		var c cachemodel.LLC = t.llc
		if capture > 0 {
			t.rec = newRecorder(t.llc, capture)
			c = t.rec
		}
		call.trials = append(call.trials, t)
		return c
	}
	victims := func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
		a, b := v.mk(keyA, keyB, c)
		return countingVictim{a, samples}, countingVictim{b, samples}
	}
	quiesce()
	start := time.Now()
	med, err := attack.Trials{Runs: env.sc.runs, Workers: 1, Seed: v.seed(env.seed)}.
		MedianDistinguishCtx(ctx, mk, victims, d.occupancy, env.sc.noise, env.sc.max, fig8Threshold)
	call.wall = time.Since(start)
	call.median = med
	return call, err
}

// checkAttack applies Fig 8's output checks to one call: a median in
// [1, max], and for Maya and the fully-associative cache no
// set-associative eviction and (Maya) a clean structural audit after
// every trial.
func checkAttack(c *checker, call *attackCall, max int) {
	if !(call.median >= 1 && call.median <= float64(max)) {
		c.fail(call.ops, "%s/%s: median %v outside [1, %d]", call.design.name, call.victims.name, call.median, max)
	}
	for i, t := range call.trials {
		if !call.design.secure {
			continue
		}
		if s := t.llc.StatsSnapshot(); s.SAEs != 0 {
			c.fail(call.ops[i:i+1], "%s/%s trial %d: %d set-associative evictions", call.design.name, call.victims.name, i, s.SAEs)
		}
		if a, ok := t.llc.(interface{ Audit() error }); ok {
			if err := a.Audit(); err != nil {
				c.fail(call.ops[i:i+1], "%s/%s trial %d: audit: %v", call.design.name, call.victims.name, i, err)
			}
		}
	}
}

func runFig8(ctx context.Context, env *runEnv) (*repResult, error) {
	// Set-up: the attacker's choice of two AES keys with contrasting
	// reuse profiles.
	t := time.Now()
	keyA, keyB := attack.FindContrastingAESKeys(64, 16, env.seed)
	keysearch := time.Since(t)
	designs := fig8Designs(env.sc.sets)
	quiesce()
	env.markSetup()

	gc := readGC()
	var samples uint64
	var calls []*attackCall
	start := time.Now()
	for _, d := range designs {
		for _, v := range fig8VictimPairs {
			call, err := runAttack(ctx, env, d, v, keyA, keyB, 0, &samples)
			if err != nil {
				return nil, err
			}
			calls = append(calls, call)
		}
	}
	workS := time.Since(start)
	env.markWorkEnd()
	gcCycles, allocMB := gc.since()

	var digest []string
	var memoHits, memoMisses uint64
	for _, call := range calls {
		for range call.trials {
			call.ops = append(call.ops, env.checks.op())
		}
		checkAttack(&env.checks, call, env.sc.max)
		digest = append(digest, fmt.Sprintf("%s %s median %v", call.design.name, call.victims.name, call.median))
		for _, t := range call.trials {
			s := t.llc.StatsSnapshot()
			memoHits += s.MemoHits
			memoMisses += s.MemoMisses
		}
	}
	res := &repResult{WorkS: workS.Seconds(), Work: float64(samples), Digest: digest}
	if env.trace {
		l, err := ledgerFig8(ctx, env, designs, calls, samples, keyA, keyB)
		if err != nil {
			return nil, err
		}
		l["trace.overhead_frac"] = l["layers.wall_s"]/workS.Seconds() - 1
		l["runtime.gc_cycles"], l["runtime.alloc_mb"] = gcCycles, allocMB
		l["probe.memo_hit_rate"] = ratio(float64(memoHits), float64(memoHits+memoMisses))
		l["probe.memo_misses"] = float64(memoMisses)
		l["attack.samples"] = float64(samples)
		l["attack.keysearch_s"] = keysearch.Seconds()
		res.Layers = withAllLayers(l)
	}
	return env.finish(res), nil
}

// ledgerFig8 is the traced run of fig8-occupancy: every call again with
// each trial's LLC stream captured (a bounded prefix), then each prefix
// replayed into a fresh cache from the trial's seed. A design's time is
// its replay cost per access times its in-run access count; the rest of
// the traced wall time (victims, noise RNG, Welch t, priming bookkeeping)
// is the attack residual.
func ledgerFig8(ctx context.Context, env *runEnv, designs []fig8Design, plain []*attackCall, plainSamples uint64, keyA, keyB [16]byte) (map[string]float64, error) {
	l := map[string]float64{}
	var wall time.Duration
	replayT := map[string]time.Duration{}
	replayN := map[string]uint64{}
	total := map[string]uint64{}
	var samples uint64
	i := 0
	for _, d := range designs {
		for _, v := range fig8VictimPairs {
			call, err := runAttack(ctx, env, d, v, keyA, keyB, env.sc.capture, &samples)
			if err != nil {
				return nil, err
			}
			wall += call.wall
			if call.median != plain[i].median {
				env.checks.fail(plain[i].ops, "%s/%s: traced median %v differs from the plain run's %v", d.name, v.name, call.median, plain[i].median)
			}
			for j, t := range call.trials {
				if t.rec.other != 0 {
					env.checks.fail(plain[i].ops[j:j+1], "%s/%s: %d Flush/Probe calls the replay does not reproduce", d.name, v.name, t.rec.other)
				}
				replayT[d.layer] += replay(d.mk(t.seed), t.rec.stream, t.rec.resets)
				replayN[d.layer] += uint64(len(t.rec.stream))
				total[d.layer] += t.rec.count
				call.trials[j].rec = nil // release the capture
			}
			i++
		}
	}
	var covered float64
	for _, d := range designs {
		ns := nsPer(replayT[d.layer], replayN[d.layer])
		s := ns * float64(total[d.layer]) / 1e9
		l[d.layer+"accesses"] = float64(total[d.layer])
		l[d.layer+"ns_per_access"] = ns
		l[d.layer+"s"] = s
		covered += s
	}
	if samples != plainSamples {
		env.checks.fail(plain[0].ops, "traced run took %d samples, the plain run %d", samples, plainSamples)
	}
	l["layers.wall_s"] = wall.Seconds()
	l["attack.self_s"] = wall.Seconds() - covered
	l["attack.self_share"] = ratio(wall.Seconds()-covered, wall.Seconds())
	l["prince.ns_per_index"] = princeNsPerIndex(env.sc.sets, env.seed)
	return l, nil
}

// princeNsPerIndex times the PRINCE randomizer Maya uses in Fig 8 on its
// own, in bulk over a million lines.
func princeNsPerIndex(sets int, seed uint64) float64 {
	r := prince.NewRandomizer(2, uint(bits.TrailingZeros(uint(sets))), seed)
	const n = 1 << 20
	sink := 0
	quiesce()
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += r.Index(i&1, uint64(i)*0x9e3779b97f4a7c15)
	}
	d := time.Since(start)
	if sink == -1 { // keeps the loop from being optimised away
		fmt.Println(sink)
	}
	return nsPer(d, n)
}
