package cachemodel_test

import (
	"errors"
	"fmt"
	"testing"

	"mayacache/internal/cachemodel"

	_ "mayacache/internal/baseline"
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

// TestBuildTinyGeometries builds every registered design at one and two
// sets per core under both hashers. Each case must build a working cache
// or return ErrBadConfig; none may panic (PRINCE has no index bit to
// randomize with a single set).
func TestBuildTinyGeometries(t *testing.T) {
	for _, design := range cachemodel.Registered() {
		for _, sets := range []int{1, 2} {
			for _, fast := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/sets=%d/fast=%v", design, sets, fast), func(t *testing.T) {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("Build panicked: %v", p)
						}
					}()
					llc, err := cachemodel.Build(design, cachemodel.BuildOptions{
						Cores: 1, SetsPerCore: sets, Seed: 1, FastHash: fast,
					})
					if err != nil {
						if !errors.Is(err, cachemodel.ErrBadConfig) {
							t.Fatalf("error does not wrap ErrBadConfig: %v", err)
						}
						return
					}
					for line := uint64(0); line < 64; line++ {
						llc.Access(cachemodel.Access{Line: line})
						llc.Probe(line, 0)
					}
				})
			}
		}
	}
}
