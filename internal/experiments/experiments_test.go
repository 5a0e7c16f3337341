package experiments

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/harness"
	"mayacache/internal/report"
	"mayacache/internal/trace"
)

// tiny keeps experiment tests fast; shapes are asserted loosely.
func tiny() Scale {
	return Scale{WarmupInstr: 200_000, ROIInstr: 100_000, Seed: 1}
}

func mustLLC(t *testing.T, d Design, opts LLCOptions) cachemodel.LLC {
	t.Helper()
	llc, err := NewLLCChecked(d, opts)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	return llc
}

func TestNewLLCAllDesigns(t *testing.T) {
	for _, d := range []Design{DesignBaseline, DesignMirage, DesignMirageLite, DesignMaya, DesignMayaISO} {
		g := mustLLC(t, d, LLCOptions{Cores: 1, Seed: 1, FastHash: true}).Geometry()
		if g.DataEntries <= 0 {
			t.Fatalf("%s: bad geometry %+v", d, g)
		}
	}
}

func TestNewLLCGeometryScaling(t *testing.T) {
	one := mustLLC(t, DesignMaya, LLCOptions{Cores: 1, Seed: 1, FastHash: true}).Geometry()
	eight := mustLLC(t, DesignMaya, LLCOptions{Cores: 8, Seed: 1, FastHash: true}).Geometry()
	if eight.DataEntries != 8*one.DataEntries {
		t.Fatalf("data entries do not scale with cores: %d vs 8x%d", eight.DataEntries, one.DataEntries)
	}
	// 8-core Maya must be the paper's 192K entries (12MB).
	if eight.DataEntries != 196608 {
		t.Fatalf("8-core Maya data entries = %d, want 196608", eight.DataEntries)
	}
}

func TestMayaOptionOverrides(t *testing.T) {
	g := mustLLC(t, DesignMaya, LLCOptions{Cores: 1, Seed: 1, FastHash: true, ReuseWays: 7, InvalidWays: 5}).Geometry()
	if g.WaysPerSkew != 6+7+5 {
		t.Fatalf("ways per skew = %d, want 18", g.WaysPerSkew)
	}
}

func TestRunMixDesignProducesWS(t *testing.T) {
	res, err := RunMixDesignCtx(context.Background(), "m", []string{"xz", "xz"}, DesignBaseline, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.WS <= 0 || res.WS > 2.1 {
		t.Fatalf("weighted speedup %v out of range for 2 cores", res.WS)
	}
	if res.MPKI < 0 {
		t.Fatalf("negative MPKI")
	}
}

func TestAloneIPCMemoized(t *testing.T) {
	sc := tiny()
	a, err := AloneIPCCtx(context.Background(), "xz", sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AloneIPCCtx(context.Background(), "xz", sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("memoized alone IPC differs: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("alone IPC %v", a)
	}
}

func TestFig1ShapesAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep, err := NewSession(harness.New(harness.Options{})).Run(context.Background(), Select(Figures(tiny()), "fig1")[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 || len(rep.Rows) != 21 {
		t.Fatalf("%d Fig 1 rows (%d incomplete), want 20 and an average", len(rep.Rows), rep.Incomplete)
	}
	avg := rep.Rows[20]
	ab, err := strconv.ParseFloat(avg[2], 64)
	if avg[0] != "AVERAGE" || err != nil {
		t.Fatalf("last row %v is not the average", avg)
	}
	// The paper's headline observation: most LLC fills are dead.
	if ab < 60 {
		t.Fatalf("baseline average dead%% = %.1f, expected the >60%% regime even at tiny scale", ab)
	}
}

func TestSummarizeFig9(t *testing.T) {
	rows := []fig9Row{
		{Bench: "a", Suite: "SPEC", NormMirage: 1.0, NormMaya: 1.1},
		{Bench: "b", Suite: "GAP", NormMirage: 0.9, NormMaya: 1.0},
	}
	tab := report.NewTable("", "benchmark", "suite", "Mirage", "Maya")
	addFig9Gmeans(tab, rows)
	want := [][]string{
		{"GMEAN-SPEC", "", "1.000", "1.100", "", "", ""},
		{"GMEAN-GAP", "", "0.900", "1.000", "", "", ""},
		{"GMEAN-ALL", "", "0.949", "1.049", "", "", ""},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Fatalf("summary rows %v, want %v", tab.Rows, want)
	}
}

func TestTable7Aggregation(t *testing.T) {
	fig9 := []fig9Row{{Bench: "a", Suite: "SPEC", MPKIBase: 10, MPKIMirage: 9, MPKIMaya: 11}}
	fig10 := []fig10Row{
		{Mix: "M1", Bin: trace.BinLow, MPKIBase: 8, MPKIMirage: 8, MPKIMaya: 9},
		{Mix: "M15", Bin: trace.BinHigh, MPKIBase: 21, MPKIMirage: 21, MPKIMaya: 22},
	}
	tab := report.NewTable("", "workloads", "Baseline", "Mirage", "Maya")
	addTable7Rows(tab, fig9, fig10)
	if len(tab.Rows) != 4 {
		t.Fatalf("%d Table VII rows, want 4", len(tab.Rows))
	}
	if got := tab.Rows[0]; got[0] != "SPEC and GAP-RATE" || got[1] != "10.000" {
		t.Fatalf("homogeneous row %v", got)
	}
}

func TestPartitionLLCKinds(t *testing.T) {
	for _, k := range table11Kinds {
		if llc := newPartitionLLC(k.kind, 8, 1); llc == nil {
			t.Fatalf("%s: nil", k.name)
		}
	}
}

// TestSortFig9 pins the Fig 9 axis order: SPEC first, then by name.
func TestSortFig9(t *testing.T) {
	order, spec := fig9Order(), len(trace.SpecMemIntensive())
	if len(order) != spec+len(trace.GapMemIntensive()) {
		t.Fatalf("%d Fig 9 benchmarks", len(order))
	}
	for i, b := range order {
		if want := map[bool]string{true: "SPEC", false: "GAP"}[i < spec]; suiteOf(b) != want {
			t.Fatalf("benchmark %d (%s) is %s, want %s", i, b, suiteOf(b), want)
		}
	}
	if !slices.IsSorted(order[:spec]) || !slices.IsSorted(order[spec:]) {
		t.Fatalf("bad order: %v", order)
	}
}
