// Package cachemodel is the fixture stand-in for the repo's design
// registry API. Its package name matches the real one so the seedflow
// sanctioned-field rule, which sanctions no BuildOptions field, applies
// to the fixtures exactly as it does to the real package.
package cachemodel

import "vetfixture/rng"

// BuildOptions mirrors the real registry options: Seed is results-
// affecting seed material.
type BuildOptions struct {
	Seed uint64
}

// Build stands in for the registry entry point: the seed feeds seed
// material (a sink).
func Build(o BuildOptions) *rng.Rand {
	return rng.New(o.Seed)
}
