package bench

import (
	"context"

	"mayacache/internal/cachemodel"
	"mayacache/internal/cachesim"
	"mayacache/internal/trace"
)

// GoldenRun executes the pinned golden workload for one design: a 2-core
// mcf+xz mix with the real PRINCE hasher, seed 42, 20k warmup and 50k ROI
// instructions per core. The returned Results, marshaled to JSON, are the
// design's golden fixture (testdata/golden_*.json): hot-path optimizations
// must keep them byte-identical, because any drift means the optimization
// changed observable behavior — a different victim, RNG draw order, or
// float arithmetic — not just its speed.
func GoldenRun(design string) (cachesim.Results, error) {
	llc, err := cachemodel.Build(design, cachemodel.BuildOptions{
		Cores: len(goldenMix),
		Seed:  goldenSeed,
	})
	if err != nil {
		return cachesim.Results{}, err
	}
	return goldenRunLLC(llc)
}

// The golden workload's pinned parameters.
const (
	goldenSeed   = 42
	goldenWarmup = 20_000
	goldenROI    = 50_000
)

var goldenMix = []string{"mcf", "xz"}

// goldenRunLLC runs the golden workload on an already built LLC (sized
// for len(goldenMix) cores).
func goldenRunLLC(llc cachemodel.LLC) (cachesim.Results, error) {
	gens := make([]trace.Generator, len(goldenMix))
	for i, name := range goldenMix {
		p, err := trace.Lookup(name)
		if err != nil {
			return cachesim.Results{}, err
		}
		gens[i], err = trace.NewGenerator(p, i, goldenSeed)
		if err != nil {
			return cachesim.Results{}, err
		}
	}
	sys := cachesim.New(cachesim.Config{
		Cores: len(goldenMix),
		Core:  cachesim.DefaultCoreParams(),
		LLC:   llc,
		DRAM:  cachesim.DefaultDRAMConfig(),
		Seed:  goldenSeed,
	}, gens)
	return cachesim.Run(context.Background(), sys, cachesim.RunSpec{Warmup: goldenWarmup, ROI: goldenROI})
}
