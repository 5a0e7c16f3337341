package experiments

import (
	"context"
	"fmt"
	"sync"

	"mayacache/internal/attack"
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/ceaser"
	"mayacache/internal/core"
	"mayacache/internal/mirage"
	"mayacache/internal/report"
)

// AttackSpec parameterizes the attack entries: the caches' set count per
// skew (a power of two >= 2; 64 gives 256KB-class caches), Fig 8's
// occupancy-attack repetitions (their median is reported), encryption
// budget per attack and background noise accesses per sample, and the
// seed. Workers bounds the repetition pool and never affects results.
type AttackSpec struct {
	Sets, Runs, Max, Noise int
	Seed                   uint64
	Workers                int
}

// AttackFigures returns attacksim's entries — the Fig 8 occupancy attack
// and the eviction-set comparison — in the order its "all" experiment
// renders them.
func AttackFigures(spec AttackSpec) []*Figure {
	return []*Figure{fig8(spec), evictionSets(spec)}
}

// must unwraps a checked cache constructor for the attack entries, whose
// cache factories cannot return an error. The commands validate Sets; a
// panic here still fails only its cell, and its error unwraps to
// cachemodel.ErrBadConfig.
func must[T cachemodel.LLC](c T, err error) cachemodel.LLC {
	if err != nil {
		panic(err)
	}
	return c
}

// fig8 distinguishes two AES keys and two modular-exponentiation keys
// through the cache-occupancy channel on a 16-way set-associative cache,
// the Maya cache and a fully-associative cache, one cell per (design,
// victim) pair holding the median encryptions needed.
func fig8(spec AttackSpec) *Figure {
	capacity := spec.Sets * 16
	// Each design's occupancy-set size equals capacity for the
	// deterministic LRU cache and is twice capacity for the
	// random-replacement designs, whose probe must churn the cache.
	type cacheDesign struct {
		name      string
		mk        func(seed uint64) cachemodel.LLC
		occupancy int
	}
	designs := []cacheDesign{
		{"16-way SA", func(seed uint64) cachemodel.LLC {
			return must(baseline.NewChecked(baseline.Config{Sets: spec.Sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
		}, capacity},
		{"Maya", func(seed uint64) cachemodel.LLC {
			return must(core.NewChecked(core.Config{SetsPerSkew: spec.Sets, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6, Seed: seed}))
		}, 2 * spec.Sets * 2 * 6},
		{"Fully associative", func(seed uint64) cachemodel.LLC {
			return must(baseline.NewFullyAssociativeChecked(capacity, seed, true))
		}, 2 * capacity},
	}
	// The attacker picks two AES keys with contrasting reuse profiles,
	// searched once per entry.
	aesKeys := sync.OnceValues(func() ([16]byte, [16]byte) { return attack.FindContrastingAESKeys(64, 16, spec.Seed) })
	type victimPair struct {
		name string
		seed uint64
		mk   func(c cachemodel.LLC) (attack.Victim, attack.Victim)
	}
	victims := []victimPair{
		{"AES", spec.Seed, func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
			keyA, keyB := aesKeys()
			return attack.NewAESVictim(keyA, 1<<20, 16, attack.CacheToucher(c, 2)), attack.NewAESVictim(keyB, 1<<20, 16, attack.CacheToucher(c, 3))
		}},
		{"ModExp", spec.Seed + 77, func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
			return attack.NewModExpVictim(1, 64, 1<<21, attack.CacheToucher(c, 2)), attack.NewModExpVictim(4, 64, 1<<21, attack.CacheToucher(c, 3))
		}},
	}
	labels := crossLabels(
		mapEach(designs, func(d cacheDesign) string { return "design=" + d.name }),
		mapEach(victims, func(v victimPair) string { return "victim=" + v.name }))
	params := fmt.Sprintf("sets=%d|runs=%d|max=%d|noise=%d|seed=%d", spec.Sets, spec.Runs, spec.Max, spec.Noise, spec.Seed)
	return &Figure{
		Name:   "fig8",
		Title:  "Fig 8: occupancy attack — encryptions to distinguish two keys (median)",
		Header: []string{"design", "AES", "AES (normalized to FA)", "ModExp", "ModExp (normalized)"},
		groups: []*cellGroup{group("fig8", keyed(labels, params), func(ctx context.Context, k int) (float64, error) {
			d, v := designs[k/len(victims)], victims[k%len(victims)]
			return attack.Trials{Runs: spec.Runs, Workers: spec.Workers, Seed: v.seed}.
				MedianDistinguishCtx(ctx, d.mk, v.mk, d.occupancy, spec.Noise, spec.Max, 4.5)
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			med, ok := res[0].vals.([]float64), res[0].ok
			fa := (len(designs) - 1) * len(victims)
			incomplete := 0
			for i, d := range designs {
				row := []any{d.name}
				for v := range victims {
					k := i*len(victims) + v
					n, norm := "FAILED", "FAILED"
					if ok[k] {
						n = fmt.Sprintf("%.0f", med[k])
					}
					if ok[k] && ok[fa+v] {
						norm = fmt.Sprintf("%.3f", med[k]/med[fa+v])
					}
					row = append(row, n, norm)
				}
				incomplete += addRow(t, row...)
			}
			return incomplete
		},
	}
}

// evictionSets demonstrates why Maya and Mirage eliminate conflict
// attacks: eviction-set construction succeeds against conventional and
// CEASER-family designs (with SAEs as the tell-tale) and fails against
// the global-eviction designs. One cell per design.
func evictionSets(spec AttackSpec) *Figure {
	sets, seed := spec.Sets, spec.Seed
	type cacheDesign struct {
		name string
		mk   func() cachemodel.LLC
	}
	designs := []cacheDesign{
		{"Baseline 16-way", func() cachemodel.LLC {
			return must(baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true}))
		}},
		{"CEASER", func() cachemodel.LLC {
			return must(ceaser.NewChecked(ceaser.Config{Sets: sets, Ways: 16, Variant: ceaser.CEASER, Seed: seed}))
		}},
		{"CEASER-S", func() cachemodel.LLC {
			return must(ceaser.NewChecked(ceaser.Config{Sets: sets, Ways: 16, Variant: ceaser.CEASERS, Seed: seed}))
		}},
		{"ScatterCache", func() cachemodel.LLC {
			return must(ceaser.NewChecked(ceaser.Config{Sets: sets, Ways: 16, Variant: ceaser.ScatterCache, Seed: seed}))
		}},
		{"Mirage", func() cachemodel.LLC {
			return must(mirage.NewChecked(mirage.Config{SetsPerSkew: sets, Skews: 2, BaseWays: 8, ExtraWays: 6, Seed: seed}))
		}},
		{"Maya", func() cachemodel.LLC {
			return must(core.NewChecked(core.Config{SetsPerSkew: sets, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6, Seed: seed}))
		}},
	}
	labels := mapEach(designs, func(d cacheDesign) string { return "design=" + d.name })
	return &Figure{
		Name:   "evictionset",
		Title:  "Eviction-set construction across designs",
		Header: []string{"design", "found", "set size", "SAEs observed", "attacker accesses"},
		groups: []*cellGroup{group("evictionset", keyed(labels, fmt.Sprintf("sets=%d|seed=%d", sets, seed)), func(_ context.Context, i int) (attack.EvictionSetResult, error) {
			return attack.BuildEvictionSet(designs[i].mk(), 0x12345, sets*64, 80_000_000, seed), nil
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			incomplete := 0
			for i, d := range designs {
				if r := res[0].vals.([]attack.EvictionSetResult)[i]; res[0].ok[i] {
					t.AddRow(d.name, r.Found, r.SetSize, r.SAEsObserved, r.AccessesUsed)
				} else {
					incomplete += addRow(t, d.name, "FAILED", "FAILED", "FAILED", "FAILED")
				}
			}
			return incomplete
		},
	}
}
