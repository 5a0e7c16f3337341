package experiments

import (
	"mayacache/internal/cachemodel"

	// The designs register their registry factories in init(); the blank
	// imports make every named design buildable through NewLLCChecked even
	// though nothing here references the packages directly.
	_ "mayacache/internal/baseline"
	_ "mayacache/internal/ceaser"
	_ "mayacache/internal/core"
	_ "mayacache/internal/mirage"
)

// Design names a cache design under test.
type Design string

// The designs compared in the paper.
const (
	DesignBaseline   Design = "Baseline"
	DesignMirage     Design = "Mirage"
	DesignMirageLite Design = "Mirage-Lite"
	DesignMaya       Design = "Maya"
	DesignMayaISO    Design = "Maya-ISO"
)

// LLCOptions parameterizes design construction: the registry's
// BuildOptions, whose zero SetsPerCore selects the paper's 2048 sets per
// core.
type LLCOptions = cachemodel.BuildOptions

// NewLLCChecked constructs the named design scaled to opts.Cores through
// the cachemodel registry, returning an error wrapping
// cachemodel.ErrBadConfig for unknown designs or invalid geometry.
func NewLLCChecked(d Design, opts LLCOptions) (cachemodel.LLC, error) {
	return cachemodel.Build(string(d), opts)
}

// AllDesigns returns the designs of the paper's headline comparison.
func AllDesigns() []Design {
	return []Design{DesignBaseline, DesignMirage, DesignMaya}
}
