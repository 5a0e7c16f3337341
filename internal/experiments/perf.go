package experiments

import (
	"context"
	"fmt"
	"sync"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/metrics"
	"mayacache/internal/snapshot"
	"mayacache/internal/trace"
)

// Scale controls simulation effort. The paper runs 200M warmup + 200M ROI
// instructions per core; the command-line tools default to a scaled-down
// budget so the full experiment suite completes in minutes, with shapes
// already stable.
type Scale struct {
	WarmupInstr uint64
	ROIInstr    uint64
	Seed        uint64
}

// scaleKey renders the scale portion of a cell key. Every cell key embeds
// it, so a checkpoint taken at one scale can never satisfy a lookup at
// another.
func scaleKey(sc Scale) string {
	return fmt.Sprintf("w=%d|roi=%d|seed=%d", sc.WarmupInstr, sc.ROIInstr, sc.Seed)
}

// dramFor scales channels with core count (2 channels per 8 cores).
func dramFor(cores int) cachesim.DRAMConfig {
	cfg := cachesim.DefaultDRAMConfig()
	ch := (cores + 3) / 4
	if ch < 1 {
		ch = 1
	}
	cfg.Channels = ch
	return cfg
}

// homogeneous returns the benchmark repeated for n cores.
func homogeneous(bench string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = bench
	}
	return names
}

// runMixCtx simulates one workload assignment under one LLC, honoring
// ctx cancellation and returning trace/construction failures as errors.
// sub names this sub-run within its cell ("mix|<design>",
// "alone|<bench>"); when the harness attached a snapshot.Cell to ctx the
// run goes through the checkpointing path of cachesim.Run, so completed
// sub-runs are served from the cell record, an interrupted one resumes
// mid-simulation, and deadline stops persist state before returning
// snapshot.ErrStopped.
func runMixCtx(ctx context.Context, sub string, benchNames []string, llc cachemodel.LLC, sc Scale) (cachesim.Results, error) {
	gens := make([]trace.Generator, len(benchNames))
	for i, b := range benchNames {
		p, err := trace.Lookup(b)
		if err != nil {
			return cachesim.Results{}, err
		}
		g, err := trace.NewGenerator(p, i, sc.Seed)
		if err != nil {
			return cachesim.Results{}, err
		}
		gens[i] = g
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(benchNames),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  dramFor(len(benchNames)),
		Seed:  sc.Seed,
	}, gens)
	return cachesim.Run(ctx, sys, cachesim.RunSpec{
		Warmup: sc.WarmupInstr,
		ROI:    sc.ROIInstr,
		Cell:   snapshot.CellFrom(ctx),
		Sub:    sub,
	})
}

// aloneKey memoizes single-core baseline IPCs per (bench, scale).
type aloneKey struct {
	bench string
	warm  uint64
	roi   uint64
	seed  uint64
}

var (
	aloneMu    sync.Mutex
	aloneCache = map[aloneKey]float64{}
)

// AloneIPCCtx returns the benchmark's single-core IPC on a private 2MB
// baseline LLC — the denominator of the weighted-speedup metric. Results
// are memoized per (bench, scale); failed computations are not.
func AloneIPCCtx(ctx context.Context, bench string, sc Scale) (float64, error) {
	k := aloneKey{bench, sc.WarmupInstr, sc.ROIInstr, sc.Seed}
	aloneMu.Lock()
	v, ok := aloneCache[k]
	aloneMu.Unlock()
	if ok {
		return v, nil
	}
	llc, err := NewLLCChecked(DesignBaseline, LLCOptions{Cores: 1, Seed: sc.Seed})
	if err != nil {
		return 0, err
	}
	res, err := runMixCtx(ctx, "alone|"+bench, []string{bench}, llc, sc)
	if err != nil {
		return 0, err
	}
	v = res.Cores[0].IPC
	aloneMu.Lock()
	aloneCache[k] = v
	aloneMu.Unlock()
	return v, nil
}

// MixResult is one (mix, design) performance measurement.
type MixResult struct {
	Mix      string
	Design   Design
	WS       float64 // weighted speedup
	MPKI     float64
	IPCs     []float64
	LLCStats cachemodel.Stats
}

// RunMixDesignCtx simulates the benchmark assignment under the named
// design and computes the weighted speedup against single-core baseline
// IPCs.
func RunMixDesignCtx(ctx context.Context, mixName string, benchNames []string, d Design, sc Scale) (MixResult, error) {
	llc, err := NewLLCChecked(d, LLCOptions{Cores: len(benchNames), Seed: sc.Seed, FastHash: true})
	if err != nil {
		return MixResult{}, err
	}
	return RunMixLLCCtx(ctx, mixName, benchNames, d, llc, sc)
}

// RunMixLLCCtx is RunMixDesignCtx with a caller-supplied LLC instance
// (used for configuration sweeps like Fig 4's reuse-way study).
func RunMixLLCCtx(ctx context.Context, mixName string, benchNames []string, d Design, llc cachemodel.LLC, sc Scale) (MixResult, error) {
	res, err := runMixCtx(ctx, "mix|"+llc.Name(), benchNames, llc, sc)
	if err != nil {
		return MixResult{}, err
	}
	ipcs := make([]float64, len(res.Cores))
	alone := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		ipcs[i] = c.IPC
		alone[i], err = AloneIPCCtx(ctx, benchNames[i], sc)
		if err != nil {
			return MixResult{}, err
		}
	}
	ws, err := metrics.WeightedSpeedup(ipcs, alone)
	if err != nil {
		return MixResult{}, fmt.Errorf("experiments: %w", err)
	}
	return MixResult{
		Mix: mixName, Design: d, WS: ws, MPKI: res.MPKI(),
		IPCs: ipcs, LLCStats: res.LLCStats,
	}, nil
}
