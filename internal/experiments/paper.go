package experiments

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/core"
	"mayacache/internal/metrics"
	"mayacache/internal/partition"
	"mayacache/internal/report"
	"mayacache/internal/trace"
)

// The figure table. Cell keys and cell-value JSON are the checkpoint
// format: changing a group name, a label, or a cell type's fields
// orphans every checkpoint written before the change. Figures are built
// by functions, not package variables, so binaries that never run one
// do not link the simulation code behind it.

// Figures returns the performance figures mayasim runs at scale sc, in
// the order its "all" experiment renders them. Fig 9 and Table VII share
// one cell group, as do Fig 10 and Table VII. Every cell key ends in
// scaleKey(sc).
func Figures(sc Scale) []*Figure {
	f9, f10 := fig9Group(sc), fig10Group(sc)
	return []*Figure{
		fig1(sc), fig9(f9), fig10(f10), table7(f9, f10), fig4(sc), table11(sc),
		fitting(sc), coresFigure(sc, []int{8, 16, 32}), llcSize(sc),
	}
}

// suiteOf returns the benchmark's suite ("SPEC" or "GAP").
func suiteOf(bench string) string { return trace.MustLookup(bench).Suite }

// memIntensive is the 20-benchmark set of Figs 1 and 9.
func memIntensive() []string {
	return append(trace.SpecMemIntensive(), trace.GapMemIntensive()...)
}

// mapEach returns f applied to each element of xs.
func mapEach[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func benchLabels(benches []string) []string {
	return mapEach(benches, func(b string) string { return "bench=" + b })
}

// crossLabels returns the outer-major product "o|i" of two label sets.
func crossLabels(outer, inner []string) []string {
	out := make([]string, 0, len(outer)*len(inner))
	for _, o := range outer {
		for _, i := range inner {
			out = append(out, o+"|"+i)
		}
	}
	return out
}

// runDesigns simulates one mix under each design in turn.
func runDesigns(ctx context.Context, mixName string, mix []string, sc Scale, ds ...Design) ([]MixResult, error) {
	out := make([]MixResult, len(ds))
	for i, d := range ds {
		r, err := RunMixDesignCtx(ctx, mixName, mix, d, sc)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// gmeanOr returns the geometric mean of vals, or def when vals is empty.
func gmeanOr(vals []float64, def float64) float64 {
	if len(vals) == 0 {
		return def
	}
	gm, _ := metrics.GeoMean(vals)
	return gm
}

// gmeanRows folds a row-major grid of normalized values into one
// geometric mean per row over its completed cells, reporting whether
// every cell of the row completed.
func gmeanRows(vals []float64, ok []bool, rows int, def float64) ([]float64, []bool) {
	cols := len(vals) / rows
	gms := make([]float64, rows)
	complete := make([]bool, rows)
	for i := range gms {
		row, rowOK := vals[i*cols:(i+1)*cols], ok[i*cols:(i+1)*cols]
		gms[i] = gmeanOr(completed(row, rowOK), def)
		complete[i] = countFalse(rowOK) == 0
	}
	return gms, complete
}

// ---------------------------------------------------------------- Fig 1

// fig1Row is the dead-block percentage of one benchmark on a single-core
// 2MB LLC, for the baseline and Mirage designs.
type fig1Row struct {
	Bench        string
	Suite        string
	DeadBaseline float64 // percent
	DeadMirage   float64 // percent
}

func fig1(sc Scale) *Figure {
	fig1Benches := memIntensive()
	return &Figure{
		Name:   "fig1",
		Title:  "Fig 1: % dead blocks inserted into a 2MB single-core LLC",
		Header: []string{"benchmark", "suite", "baseline dead%", "mirage dead%"},
		groups: []*cellGroup{group("fig1", keyed(benchLabels(fig1Benches), scaleKey(sc)), func(ctx context.Context, i int) (fig1Row, error) {
			b := fig1Benches[i]
			var dead [2]float64
			for k, c := range []struct {
				d    Design
				fast bool
			}{{DesignBaseline, false}, {DesignMirage, true}} {
				llc, err := NewLLCChecked(c.d, LLCOptions{Cores: 1, Seed: sc.Seed, FastHash: c.fast})
				if err != nil {
					return fig1Row{}, err
				}
				res, err := runMixCtx(ctx, "mix|"+llc.Name(), []string{b}, llc, sc)
				if err != nil {
					return fig1Row{}, err
				}
				dead[k] = res.LLCStats.DeadBlockFraction() * 100
			}
			return fig1Row{Bench: b, Suite: suiteOf(b), DeadBaseline: dead[0], DeadMirage: dead[1]}, nil
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			rows, ok := res[0].vals.([]fig1Row), res[0].ok
			var base, mir []float64
			for i, b := range fig1Benches {
				if ok[i] {
					t.AddRow(b, suiteOf(b), rows[i].DeadBaseline, rows[i].DeadMirage)
					base = append(base, rows[i].DeadBaseline)
					mir = append(mir, rows[i].DeadMirage)
				} else {
					t.AddRow(b, suiteOf(b), "FAILED", "FAILED")
				}
			}
			if len(base) > 0 {
				t.AddRow("AVERAGE", "", metrics.Mean(base), metrics.Mean(mir))
			}
			return len(fig1Benches) - len(base)
		},
	}
}

// ---------------------------------------------------------------- Fig 9

// fig9Row is one 8-core homogeneous mix's weighted speedup normalized to
// the baseline, plus the Table VII MPKI data.
type fig9Row struct {
	Bench      string
	Suite      string
	NormMirage float64
	NormMaya   float64
	MPKIBase   float64
	MPKIMirage float64
	MPKIMaya   float64
}

// fig9Order is the Fig 9 axis order: SPEC first, then by name.
func fig9Order() []string {
	spec, gap := trace.SpecMemIntensive(), trace.GapMemIntensive()
	slices.Sort(spec)
	slices.Sort(gap)
	return append(spec, gap...)
}

func fig9Group(sc Scale) *cellGroup {
	fig9Benches := fig9Order()
	return group("fig9", keyed(benchLabels(fig9Benches), scaleKey(sc)), func(ctx context.Context, i int) (fig9Row, error) {
		b := fig9Benches[i]
		r, err := runDesigns(ctx, b, homogeneous(b, 8), sc, DesignBaseline, DesignMirage, DesignMaya)
		if err != nil {
			return fig9Row{}, err
		}
		return fig9Row{
			Bench: b, Suite: suiteOf(b),
			NormMirage: r[1].WS / r[0].WS, NormMaya: r[2].WS / r[0].WS,
			MPKIBase: r[0].MPKI, MPKIMirage: r[1].MPKI, MPKIMaya: r[2].MPKI,
		}, nil
	})
}

func fig9(g *cellGroup) *Figure {
	fig9Benches := fig9Order()
	return &Figure{
		Name:   "fig9",
		Title:  "Fig 9: 8-core homogeneous mixes (weighted speedup normalized to baseline)",
		Header: []string{"benchmark", "suite", "Mirage", "Maya", "base MPKI", "mirage MPKI", "maya MPKI"},
		groups: []*cellGroup{g},
		reduce: func(t *report.Table, res []groupResult) int {
			rows, ok := res[0].vals.([]fig9Row), res[0].ok
			for i, b := range fig9Benches {
				if ok[i] {
					r := rows[i]
					t.AddRow(b, r.Suite, r.NormMirage, r.NormMaya, r.MPKIBase, r.MPKIMirage, r.MPKIMaya)
				} else {
					t.AddRow(b, suiteOf(b), "FAILED", "FAILED", "", "", "")
				}
			}
			addFig9Gmeans(t, completed(rows, ok))
			return countFalse(ok)
		},
	}
}

// addFig9Gmeans renders the per-suite ("SPEC", "GAP", "ALL") geometric
// means of the normalized columns over completed rows.
func addFig9Gmeans(t *report.Table, rows []fig9Row) {
	for _, suite := range []string{"SPEC", "GAP", "ALL"} {
		var mir, may []float64
		for _, r := range rows {
			if suite == "ALL" || r.Suite == suite {
				mir = append(mir, r.NormMirage)
				may = append(may, r.NormMaya)
			}
		}
		if len(mir) > 0 {
			t.AddRow("GMEAN-"+suite, "", gmeanOr(mir, 0), gmeanOr(may, 0), "", "", "")
		}
	}
}

// completed filters rows down to the completed ones.
func completed[T any](rows []T, ok []bool) []T {
	out := make([]T, 0, len(rows))
	for i, r := range rows {
		if ok[i] {
			out = append(out, r)
		}
	}
	return out
}

func countFalse(ok []bool) int {
	n := 0
	for _, b := range ok {
		if !b {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------- Fig 10

// fig10Row is one heterogeneous mix's normalized performance.
type fig10Row struct {
	Mix        string
	Bin        trace.MixBin
	NormMirage float64
	NormMaya   float64
	MPKIBase   float64
	MPKIMirage float64
	MPKIMaya   float64
}

// fig10Group runs the 21 heterogeneous mixes of Table VI.
func fig10Group(sc Scale) *cellGroup {
	fig10Mixes := trace.HeteroMixes()
	return group("fig10", keyed(mapEach(fig10Mixes, func(m trace.Mix) string { return "mix=" + m.Name }), scaleKey(sc)), func(ctx context.Context, i int) (fig10Row, error) {
		m := fig10Mixes[i]
		r, err := runDesigns(ctx, m.Name, m.Benchmarks, sc, DesignBaseline, DesignMirage, DesignMaya)
		if err != nil {
			return fig10Row{}, err
		}
		return fig10Row{
			Mix: m.Name, Bin: m.Bin,
			NormMirage: r[1].WS / r[0].WS, NormMaya: r[2].WS / r[0].WS,
			MPKIBase: r[0].MPKI, MPKIMirage: r[1].MPKI, MPKIMaya: r[2].MPKI,
		}, nil
	})
}

func fig10(g *cellGroup) *Figure {
	fig10Mixes := trace.HeteroMixes()
	return &Figure{
		Name:   "fig10",
		Title:  "Fig 10: 8-core heterogeneous mixes (weighted speedup normalized to baseline)",
		Header: []string{"mix", "bin", "Mirage", "Maya"},
		groups: []*cellGroup{g},
		reduce: func(t *report.Table, res []groupResult) int {
			rows, ok := res[0].vals.([]fig10Row), res[0].ok
			for i, m := range fig10Mixes {
				if ok[i] {
					t.AddRow(m.Name, string(m.Bin), rows[i].NormMirage, rows[i].NormMaya)
				} else {
					t.AddRow(m.Name, string(m.Bin), "FAILED", "FAILED")
				}
			}
			return countFalse(ok)
		},
	}
}

// ---------------------------------------------------------------- Table VII

// addTable7Rows renders Table VII, each workload class's average LLC
// MPKI per design, from completed Fig 9 and Fig 10 rows.
func addTable7Rows(t *report.Table, f9 []fig9Row, f10 []fig10Row) {
	var b, m, y []float64
	for _, r := range f9 {
		b = append(b, r.MPKIBase)
		m = append(m, r.MPKIMirage)
		y = append(y, r.MPKIMaya)
	}
	t.AddRow("SPEC and GAP-RATE", metrics.Mean(b), metrics.Mean(m), metrics.Mean(y))
	for _, bin := range []trace.MixBin{trace.BinLow, trace.BinMedium, trace.BinHigh} {
		var b, m, y []float64
		for _, r := range f10 {
			if r.Bin == bin {
				b = append(b, r.MPKIBase)
				m = append(m, r.MPKIMirage)
				y = append(y, r.MPKIMaya)
			}
		}
		t.AddRow("HETERO "+string(bin), metrics.Mean(b), metrics.Mean(m), metrics.Mean(y))
	}
}

func table7(f9, f10 *cellGroup) *Figure {
	return &Figure{
		Name:   "table7",
		Title:  "Table VII: average LLC MPKI",
		Header: []string{"workloads", "Baseline", "Mirage", "Maya"},
		groups: []*cellGroup{f9, f10},
		reduce: func(t *report.Table, res []groupResult) int {
			f9 := completed(res[0].vals.([]fig9Row), res[0].ok)
			f10 := completed(res[1].vals.([]fig10Row), res[1].ok)
			addTable7Rows(t, f9, f10)
			return countFalse(res[0].ok) + countFalse(res[1].ok)
		},
	}
}

// ---------------------------------------------------------------- Fig 4

// Fig 4 sweeps Maya's reuse ways per skew on SPEC homogeneous mixes,
// normalized to the baseline, with the data store at its default size as
// in the paper. Baseline weighted speedups are their own group, so a
// failed baseline only degrades the rows that need it.
var fig4Ways = []int{1, 3, 5, 7}

func fig4(sc Scale) *Figure {
	specBenches := trace.SpecMemIntensive()
	return &Figure{
		Name:   "fig4",
		Title:  "Fig 4: Maya performance vs reuse ways per skew (SPEC homogeneous, normalized WS)",
		Header: []string{"reuse ways/skew", "normalized WS"},
		groups: []*cellGroup{
			group("fig4-base", keyed(benchLabels(specBenches), scaleKey(sc)), func(ctx context.Context, j int) (float64, error) {
				b := specBenches[j]
				res, err := RunMixDesignCtx(ctx, b, homogeneous(b, 8), DesignBaseline, sc)
				return res.WS, err
			}),
			group("fig4", keyed(crossLabels(labelsOf("rw=%d", fig4Ways), benchLabels(specBenches)), scaleKey(sc)), func(ctx context.Context, k int) (float64, error) {
				w, b := fig4Ways[k/len(specBenches)], specBenches[k%len(specBenches)]
				llc, err := NewLLCChecked(DesignMaya, LLCOptions{Cores: 8, Seed: sc.Seed, FastHash: true, ReuseWays: w})
				if err != nil {
					return 0, err
				}
				res, err := RunMixLLCCtx(ctx, b, homogeneous(b, 8), DesignMaya, llc, sc)
				return res.WS, err
			}),
		},
		reduce: func(t *report.Table, res []groupResult) int {
			base, baseOK := res[0].vals.([]float64), res[0].ok
			raw, rawOK := res[1].vals.([]float64), res[1].ok
			norms := make([]float64, len(raw))
			ok := make([]bool, len(raw))
			for k := range raw {
				j := k % len(specBenches)
				ok[k] = baseOK[j] && rawOK[k] && base[j] > 0
				if ok[k] {
					norms[k] = raw[k] / base[j]
				}
			}
			gms, complete := gmeanRows(norms, ok, len(fig4Ways), 0)
			return addNormRows(t, labelsOf("%d", fig4Ways), gms, complete)
		},
	}
}

// labelsOf formats each value with format.
func labelsOf[T any](format string, vals []T) []string {
	return mapEach(vals, func(v T) string { return fmt.Sprintf(format, v) })
}

// addNormRows renders one "label, value" row per entry, FAILED where
// incomplete, and returns the incomplete count.
func addNormRows(t *report.Table, labels []string, vals []float64, ok []bool) int {
	for i, l := range labels {
		if ok[i] {
			t.AddRow(l, vals[i])
		} else {
			t.AddRow(l, "FAILED")
		}
	}
	return countFalse(ok)
}

// ---------------------------------------------------------------- Table XI

// table11Kinds are the secure partitioning techniques of Table XI. Storage
// overheads are the published metadata costs (mask registers / color
// tables), which are not simulated.
type table11Kind struct {
	name       string
	key        string // cell-key label
	kind       partition.Kind
	storagePct float64
}

var table11Kinds = []table11Kind{
	{"Page coloring", "tech=set", partition.SetPartition, 0.5},
	{"DAWG", "tech=way", partition.WayPartition, 0.5},
	{"BCE", "tech=flex", partition.FlexSetPartition, 2.0},
}

// newPartitionLLC builds a Table XI partitioned LLC, one domain per core.
func newPartitionLLC(k partition.Kind, cores int, seed uint64) cachemodel.LLC {
	return partition.New(partition.Config{
		Sets:        cachemodel.DefaultSetsPerCore * cores,
		Ways:        16,
		Domains:     cores,
		Kind:        k,
		Replacement: baseline.SRRIP,
		Seed:        seed,
	})
}

func table11(sc Scale) *Figure {
	specBenches := trace.SpecMemIntensive()
	return &Figure{
		Name:   "table11",
		Title:  "Table XI: secure partitioning techniques (8-core, SPEC homogeneous)",
		Header: []string{"technique", "performance %", "storage %"},
		groups: []*cellGroup{group("table11", keyed(crossLabels(mapEach(table11Kinds, func(k table11Kind) string { return k.key }), benchLabels(specBenches)), scaleKey(sc)), func(ctx context.Context, c int) (float64, error) {
			k, b := table11Kinds[c/len(specBenches)], specBenches[c%len(specBenches)]
			mix := homogeneous(b, 8)
			base, err := RunMixDesignCtx(ctx, b, mix, DesignBaseline, sc)
			if err != nil {
				return 0, err
			}
			part, err := RunMixLLCCtx(ctx, b, mix, DesignBaseline, newPartitionLLC(k.kind, 8, sc.Seed), sc)
			if err != nil {
				return 0, err
			}
			return part.WS / base.WS, nil
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			gms, ok := gmeanRows(res[0].vals.([]float64), res[0].ok, len(table11Kinds), 1)
			for i, k := range table11Kinds {
				if ok[i] {
					t.AddRow(k.name, (gms[i]-1)*100, k.storagePct)
				} else {
					t.AddRow(k.name, "FAILED", k.storagePct)
				}
			}
			return countFalse(ok)
		},
	}
}

// ---------------------------------------------------------------- Section V-B

// sensitivityRow is one point of the Section V-B sensitivity studies.
type sensitivityRow struct {
	Label    string
	NormMaya float64
}

// sensitivityNorms returns a sensitivity group's normalized values.
func sensitivityNorms(res groupResult) []float64 {
	return mapEach(res.vals.([]sensitivityRow), func(r sensitivityRow) float64 { return r.NormMaya })
}

// mayaVsBaseline returns Maya's weighted speedup normalized to the
// baseline on one mix.
func mayaVsBaseline(ctx context.Context, mixName string, mix []string, sc Scale) (float64, error) {
	r, err := runDesigns(ctx, mixName, mix, sc, DesignBaseline, DesignMaya)
	if err != nil {
		return 0, err
	}
	return r[1].WS / r[0].WS, nil
}

// fitting measures Maya on the LLC-fitting benchmarks (Section V-B
// reports a 0.63% average loss).
func fitting(sc Scale) *Figure {
	fittingBenches := trace.LLCFitting()
	return &Figure{
		Name:   "fitting",
		Title:  "Section V-B: LLC-fitting benchmarks under Maya (normalized WS)",
		Header: []string{"benchmark", "Maya/baseline"},
		groups: []*cellGroup{group("fitting", keyed(benchLabels(fittingBenches), scaleKey(sc)), func(ctx context.Context, i int) (sensitivityRow, error) {
			b := fittingBenches[i]
			n, err := mayaVsBaseline(ctx, b, homogeneous(b, 8), sc)
			return sensitivityRow{Label: b, NormMaya: n}, err
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			norms := sensitivityNorms(res[0])
			incomplete := addNormRows(t, fittingBenches, norms, res[0].ok)
			if done := completed(norms, res[0].ok); len(done) > 0 {
				t.AddRow("AVERAGE", metrics.Mean(done))
			}
			return incomplete
		},
	}
}

// coresFigure runs a mix rotating through the memory-intensive benchmarks
// at each core count, normalizing Maya to the like-for-like baseline.
func coresFigure(sc Scale, counts []int) *Figure {
	pool := memIntensive()
	labels := labelsOf("%d cores", counts)
	return &Figure{
		Name:   "cores",
		Title:  "Section V-B: core-count sensitivity (normalized WS)",
		Header: []string{"system", "Maya/baseline"},
		groups: []*cellGroup{group("cores", keyed(labelsOf("cores=%d", counts), scaleKey(sc)), func(ctx context.Context, i int) (sensitivityRow, error) {
			mix := make([]string, counts[i])
			for j := range mix {
				mix[j] = pool[j%len(pool)]
			}
			n, err := mayaVsBaseline(ctx, "cores", mix, sc)
			return sensitivityRow{Label: labels[i], NormMaya: n}, err
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			return addNormRows(t, labels, sensitivityNorms(res[0]), res[0].ok)
		},
	}
}

// The LLC-size study scales the LLC by set count (Section V-B evaluates 6MB
// to 96MB data stores; the factors multiply the default 12MB). The
// baseline scales with the same factor — a 0.5x Maya (6MB) compares
// against a 0.5x baseline (8MB) — and Maya keeps its way structure, and
// thus its security argument, as in the paper.
var llcSizeFactors = []float64{0.5, 1.0, 2.0, 4.0}

func llcSize(sc Scale) *Figure {
	specBenches := trace.SpecMemIntensive()
	return &Figure{
		Name:   "llcsize",
		Title:  "Section V-B: LLC-size sensitivity (Maya data store, normalized WS)",
		Header: []string{"configuration", "Maya/baseline"},
		groups: []*cellGroup{group("llcsize", keyed(crossLabels(labelsOf("f=%g", llcSizeFactors), benchLabels(specBenches)), scaleKey(sc)), func(ctx context.Context, c int) (float64, error) {
			f, b := llcSizeFactors[c/len(specBenches)], specBenches[c%len(specBenches)]
			mix := homogeneous(b, 8)
			sets := 1 << bits.Len(uint(float64(cachemodel.DefaultSetsPerCore*8)*f+0.5)-1)
			baseLLC, err := baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.SRRIP, Seed: sc.Seed})
			if err != nil {
				return 0, err
			}
			base, err := RunMixLLCCtx(ctx, b, mix, DesignBaseline, baseLLC, sc)
			if err != nil {
				return 0, err
			}
			cfg := core.DefaultConfig(sc.Seed)
			cfg.SetsPerSkew = sets
			cfg.Hasher = cachemodel.NewXorHasher(cfg.Skews, uint(bits.Len(uint(sets))-1), sc.Seed)
			mayaLLC, err := core.NewChecked(cfg)
			if err != nil {
				return 0, err
			}
			res, err := RunMixLLCCtx(ctx, b, mix, DesignMaya, mayaLLC, sc)
			if err != nil {
				return 0, err
			}
			return res.WS / base.WS, nil
		})},
		reduce: func(t *report.Table, res []groupResult) int {
			gms, ok := gmeanRows(res[0].vals.([]float64), res[0].ok, len(llcSizeFactors), 0)
			labels := make([]string, len(llcSizeFactors))
			for i, f := range llcSizeFactors {
				labels[i] = fmt.Sprintf("%dMB data store", int(12*f+0.5))
			}
			return addNormRows(t, labels, gms, ok)
		},
	}
}
