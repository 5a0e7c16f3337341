package experiments

import (
	"context"
	"fmt"
	"slices"

	"mayacache/internal/power"
	"mayacache/internal/report"
	"mayacache/internal/trace"
)

// The cost tables: Table VIII's exact storage accounting, Table IX's
// P-CACTI-substitute energy, power and area, and the Table X summary.
// Storage and energy are closed-form accounting that cannot fail, so the
// reducers compute them; Table X's analytical security column and its
// simulated performance column are cells.

// CostFigures returns overheads' tables — Tables VIII, IX and X — in the
// order its "all" table renders them. With perf, Table X gains its
// simulated performance column at scale sc.
func CostFigures(perf bool, sc Scale) []*Figure {
	return []*Figure{storageTable(), energyTable(), summaryTable(perf, sc)}
}

func storageTable() *Figure {
	designs := []power.Design{power.Baseline, power.Mirage, power.Maya}
	rows := []struct {
		label string
		get   func(power.Storage) string
	}{
		{"Tag bits", func(s power.Storage) string { return fmt.Sprint(s.TagBits) }},
		{"Coherence bits", func(s power.Storage) string { return fmt.Sprint(s.CoherenceBits) }},
		{"Priority bits", func(s power.Storage) string { return fmt.Sprint(s.PriorityBits) }},
		{"FPTR bits", func(s power.Storage) string { return fmt.Sprint(s.FPTRBits) }},
		{"SDID bits", func(s power.Storage) string { return fmt.Sprint(s.SDIDBits) }},
		{"Tag entry bits", func(s power.Storage) string { return fmt.Sprint(s.TagEntryBits) }},
		{"Tag entries", func(s power.Storage) string { return fmt.Sprint(s.TagEntries) }},
		{"Tag store KB", func(s power.Storage) string { return fmt.Sprintf("%.0f", s.TagStoreKB) }},
		{"Data entry bits", func(s power.Storage) string { return fmt.Sprint(s.DataEntryBits) }},
		{"Data entries", func(s power.Storage) string { return fmt.Sprint(s.DataEntries) }},
		{"Data store KB", func(s power.Storage) string { return fmt.Sprintf("%.0f", s.DataStoreKB) }},
		{"Total KB", func(s power.Storage) string { return fmt.Sprintf("%.0f", s.TotalKB) }},
		{"Overhead vs baseline", func(s power.Storage) string { return fmt.Sprintf("%+.1f%%", s.OverheadVsBaseline()*100) }},
	}
	return &Figure{
		Name:   "storage",
		Title:  "Table VIII: storage overheads",
		Header: []string{"configuration", "Baseline", "Mirage", "Maya"},
		reduce: func(t *report.Table, _ []groupResult) int {
			for _, r := range rows {
				row := []any{r.label}
				for _, d := range designs {
					row = append(row, r.get(power.Account(d)))
				}
				t.AddRow(row...)
			}
			return 0
		},
	}
}

func energyTable() *Figure {
	designs := []power.Design{power.Baseline, power.Mirage, power.Maya, power.MayaISO}
	return &Figure{
		Name:   "energy",
		Title:  "Table IX: energy, power, and area (P-CACTI-substitute model, 7nm)",
		Header: []string{"design", "read energy/access (nJ)", "write energy/access (nJ)", "static power (mW)", "area (mm^2)"},
		reduce: func(t *report.Table, _ []groupResult) int {
			for _, d := range designs {
				c := power.Estimate(d)
				t.AddRow(string(d), c.ReadEnergyNJ, c.WriteEnergyNJ, c.StaticPowerMW, c.AreaMM2)
			}
			return 0
		},
	}
}

// summaryTable is Table X. Its reducer joins the analytical security
// column, the storage column and, with perf, the simulated performance
// column: each secure design's SPEC homogeneous 8-core weighted speedup
// relative to the baseline.
func summaryTable(perf bool, sc Scale) *Figure {
	// Each secure design's analytical model point: average balls per
	// bucket t and ways per skew.
	type point struct {
		design Design
		t      float64
		ways   int
	}
	points := []point{
		{DesignMaya, 9, 15},
		{DesignMirage, 8, 14},
		{DesignMirageLite, 8, 13},
		{DesignMayaISO, 12, 18},
	}
	designs := mapEach(points, func(p point) Design { return p.design })
	ts := slices.Compact(mapEach(points, func(p point) float64 { return p.t }))
	groups := []*cellGroup{modelGroup("table10-model", ts...)}
	if perf {
		// One cell per SPEC benchmark: each design's weighted speedup on
		// its homogeneous 8-core mix, normalized to the baseline's.
		specBenches := trace.SpecMemIntensive()
		groups = append(groups, group("table10", keyed(benchLabels(specBenches), scaleKey(sc)), func(ctx context.Context, i int) ([]float64, error) {
			b := specBenches[i]
			r, err := runDesigns(ctx, b, homogeneous(b, 8), sc, append([]Design{DesignBaseline}, designs...)...)
			if err != nil {
				return nil, err
			}
			return mapEach(r[1:], func(m MixResult) float64 { return m.WS / r[0].WS }), nil
		}))
	}
	return &Figure{
		Name:   "summary",
		Title:  "Table X: security, storage, performance summary",
		Header: []string{"design", "security (installs/SAE)", "storage", "performance"},
		groups: groups,
		reduce: func(t *report.Table, res []groupResult) int {
			incomplete := 0
			for i, p := range points {
				perfv := "(run with -perf)"
				if perf {
					perfv = "FAILED"
					if countFalse(res[1].ok) == 0 {
						norms := mapEach(res[1].vals.([][]float64), func(r []float64) float64 { return r[i] })
						perfv = fmt.Sprintf("%+.2f%%", (gmeanOr(norms, 0)-1)*100)
					}
				}
				storage := fmt.Sprintf("%+.1f%%", power.Account(power.Design(p.design)).OverheadVsBaseline()*100)
				incomplete += addRow(t, string(p.design), fromModel(res[0], slices.Index(ts, p.t), installs(p.ways)), storage, perfv)
			}
			return incomplete
		},
	}
}
