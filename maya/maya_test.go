package maya

import (
	"errors"
	"math"
	"testing"

	"mayacache/internal/cachemodel"
)

// mustCache unwraps NewCache for tests with known-good configs.
func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultCacheConfig(1)
	cfg.SetsPerSkew = 64 // scale down for the test
	c := mustCache(t, cfg)
	r := c.Access(Access{Line: 0x1234, Type: Read})
	if r.TagHit || r.DataHit {
		t.Fatal("first access should miss entirely")
	}
	r = c.Access(Access{Line: 0x1234, Type: Read})
	if !r.TagHit || r.DataHit {
		t.Fatal("second access should be a tag-only hit (promotion)")
	}
	r = c.Access(Access{Line: 0x1234, Type: Read})
	if !r.DataHit {
		t.Fatal("third access should hit in the data store")
	}
}

// TestSystemDesignNames checks that SystemConfig.Design goes through the
// design registry: empty selects the baseline, any registered name builds
// that design, and an unknown name is a configuration error.
func TestSystemDesignNames(t *testing.T) {
	for _, c := range []struct {
		design Design
		want   string
	}{
		{"", "Baseline-16way-SRRIP"},
		{DesignMaya, "Maya-6b3r6i"},
		{"Maya-ISO", "Maya-8b4r6i"},
	} {
		sys, err := NewSystem(SystemConfig{Workloads: []string{"mcf"}, Design: c.design, Seed: 1, FastHash: true})
		if err != nil {
			t.Fatalf("design %q: %v", c.design, err)
		}
		if got := sys.LLC().Name(); got != c.want {
			t.Errorf("design %q built %s, want %s", c.design, got, c.want)
		}
	}
	for _, design := range []Design{"Maay", "maya"} {
		_, err := NewSystem(SystemConfig{Workloads: []string{"mcf"}, Design: design})
		if !errors.Is(err, cachemodel.ErrBadConfig) {
			t.Errorf("design %q: err = %v, want ErrBadConfig", design, err)
		}
	}
}

func TestSystemBuilder(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Workloads: []string{"mcf", "lbm"},
		Design:    DesignMaya,
		Seed:      1,
		FastHash:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(100_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("%d core results, want 2", len(res.Cores))
	}
	for _, c := range res.Cores {
		if c.IPC <= 0 {
			t.Fatalf("core %d: IPC %v", c.Core, c.IPC)
		}
	}
	if sys.LLC().Name() == "" {
		t.Fatal("LLC has no name")
	}
}

func TestSystemBuilderRejectsUnknownWorkload(t *testing.T) {
	if _, err := NewSystem(SystemConfig{Workloads: []string{"nope"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAllDesignsBuild(t *testing.T) {
	for _, d := range []Design{DesignBaseline, DesignMirage, DesignMaya} {
		sys, err := NewSystem(SystemConfig{
			Workloads: []string{"xz"},
			Design:    d,
			Seed:      2,
			FastHash:  true,
		})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		res, err := sys.Run(50_000, 50_000)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if res.Cores[0].Instructions == 0 {
			t.Fatalf("%s: no instructions retired", d)
		}
	}
}

func TestSecurityAPI(t *testing.T) {
	installs, err := InstallsPerSAE(SecurityPoint{BaseWays: 6, ReuseWays: 3, InvalidWays: 6})
	if err != nil {
		t.Fatal(err)
	}
	if installs < 1e31 {
		t.Fatalf("default Maya installs/SAE = %.3g, want ~1e33", installs)
	}
	if y := YearsPerSAE(installs); y < 1e14 {
		t.Fatalf("years/SAE = %.3g, want ~1e16", y)
	}
}

func TestBucketModelAPI(t *testing.T) {
	m := NewBucketModel(DefaultBucketModel(256, 1))
	m.Run(10_000)
	if m.Spills() != 0 {
		t.Fatalf("%d spills at full provisioning", m.Spills())
	}
	if err := m.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCostAPI(t *testing.T) {
	st := StorageAccount(CostMaya)
	if math.Abs(st.OverheadVsBaseline()+0.021) > 0.01 {
		t.Fatalf("Maya storage overhead %.3f, want ~-2%%", st.OverheadVsBaseline())
	}
	c := CostEstimate(CostMaya)
	if c.AreaMM2 >= CostEstimate(CostBaseline).AreaMM2 {
		t.Fatal("Maya area not below baseline")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := Workloads()
	if len(names) < 20 {
		t.Fatalf("only %d workloads registered", len(names))
	}
	p, err := LookupWorkload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Suite != "SPEC" {
		t.Fatalf("mcf suite %q", p.Suite)
	}
}
