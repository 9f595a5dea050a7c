package energy

import (
	"errors"
	"math"
	"testing"

	"hotleakage/internal/cache"
	"hotleakage/internal/leakage"
	"hotleakage/internal/tech"
)

func p70() *tech.Params { return tech.MustByNode(tech.Node70) }

func dl1Cfg() cache.Config {
	return cache.Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 2}
}

func hotModel() *leakage.Model {
	m := leakage.New(p70())
	m.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(110), Vdd: 0.9})
	return m
}

func TestTagShareOfLeakage(t *testing.T) {
	// Paper Section 5.3: "tags account for 5-10% of the leakage energy
	// in caches".
	cfg := dl1Cfg()
	g := cfg.Geometry()
	tagShare := float64(g.TagBits) / float64(g.TagBits+cfg.LineBytes*8)
	if tagShare < 0.03 || tagShare > 0.10 {
		t.Fatalf("tag share = %v, outside the paper's 5-10%% band (with margin)", tagShare)
	}
}

func TestProfileComposition(t *testing.T) {
	lp := NewCacheLeakProfile(hotModel(), dl1Cfg(), leakage.ModeGated)
	if lp.Lines != 1024 {
		t.Fatalf("lines = %d", lp.Lines)
	}
	if lp.LineStandby >= lp.LineActive {
		t.Fatal("standby line power not below active")
	}
	if lp.Edge <= 0 || lp.CtlHardware <= 0 {
		t.Fatalf("edge/control powers: %v / %v", lp.Edge, lp.CtlHardware)
	}
	// Edge logic is a modest fraction of the array.
	if frac := lp.Edge / lp.TotalActive(); frac > 0.3 {
		t.Fatalf("edge fraction %v too large", frac)
	}
	// Control hardware leakage must be a small tax.
	if lp.CtlHardware > 0.05*lp.TotalActive() {
		t.Fatalf("decay-counter leakage %v not small vs %v", lp.CtlHardware, lp.TotalActive())
	}
}

func TestBaselineProfileHasNoControlHardware(t *testing.T) {
	lp := NewCacheLeakProfile(hotModel(), dl1Cfg(), leakage.ModeActive)
	if lp.CtlHardware != 0 {
		t.Fatal("baseline charged for decay hardware")
	}
	if lp.LineStandby != lp.LineActive {
		t.Fatal("baseline standby != active")
	}
}

// mustCmp unwraps a comparison over inputs the test knows are scorable.
func mustCmp(c Comparison, err error) Comparison {
	if err != nil {
		panic(err)
	}
	return c
}

// mkMeas builds a measurement with the given cycles and standby line-cycles.
func mkMeas(cycles, standby uint64, dynJ float64) RunMeasurement {
	return RunMeasurement{
		Cycles:            cycles,
		Instructions:      cycles,
		StandbyLineCycles: standby,
		DCacheDynJ:        dynJ,
	}
}

func TestIdenticalRunsZeroSavingsAtZeroTurnoff(t *testing.T) {
	m := hotModel()
	base := mkMeas(1_000_000, 0, 1e-6)
	c := mustCmp(Compare(m, dl1Cfg(), leakage.ModeGated, base, base, 5.6e9))
	// Same cycles, no standby: only the control-hardware leakage makes
	// savings slightly negative.
	if c.PerfLossPct != 0 {
		t.Fatalf("perf loss = %v", c.PerfLossPct)
	}
	if c.NetSavingsPct > 0 || c.NetSavingsPct < -5 {
		t.Fatalf("net savings = %v, want slightly negative", c.NetSavingsPct)
	}
	if c.TurnoffRatio != 0 {
		t.Fatalf("turnoff = %v", c.TurnoffRatio)
	}
}

func TestFullTurnoffApproachesGross(t *testing.T) {
	m := hotModel()
	cfg := dl1Cfg()
	base := mkMeas(1_000_000, 0, 0)
	lines := uint64(cfg.Sets() * cfg.Assoc)
	tech := mkMeas(1_000_000, lines*1_000_000, 0)
	c := mustCmp(Compare(m, cfg, leakage.ModeGated, base, tech, 5.6e9))
	if c.TurnoffRatio < 0.999 {
		t.Fatalf("turnoff = %v", c.TurnoffRatio)
	}
	// All data+tag leakage saved minus gated residual; edge stays. Net
	// should be high but below 100%.
	if c.NetSavingsPct < 70 || c.NetSavingsPct > 100 {
		t.Fatalf("net savings at full turnoff = %v", c.NetSavingsPct)
	}
	if c.GrossSavingsPct <= c.NetSavingsPct {
		t.Fatal("gross must exceed net (residual + hardware are subtracted)")
	}
}

func TestDrowsyResidualExceedsGated(t *testing.T) {
	m := hotModel()
	cfg := dl1Cfg()
	base := mkMeas(1_000_000, 0, 0)
	lines := uint64(cfg.Sets() * cfg.Assoc)
	tech := mkMeas(1_000_000, lines*500_000, 0)
	dr := mustCmp(Compare(m, cfg, leakage.ModeDrowsy, base, tech, 5.6e9))
	gt := mustCmp(Compare(m, cfg, leakage.ModeGated, base, tech, 5.6e9))
	if dr.ResidualPct <= gt.ResidualPct {
		t.Fatalf("drowsy residual %v not above gated %v", dr.ResidualPct, gt.ResidualPct)
	}
	if dr.NetSavingsPct >= gt.NetSavingsPct {
		t.Fatal("at identical turnoff and zero dynamic cost, gated must save more")
	}
}

func TestLongerRuntimeCostsEnergy(t *testing.T) {
	m := hotModel()
	base := mkMeas(1_000_000, 0, 0)
	slow := mkMeas(1_100_000, 0, 0)
	c := mustCmp(Compare(m, dl1Cfg(), leakage.ModeGated, base, slow, 5.6e9))
	if math.Abs(c.PerfLossPct-10) > 1e-9 {
		t.Fatalf("perf loss = %v, want 10", c.PerfLossPct)
	}
	if c.NetSavingsPct >= 0 {
		t.Fatalf("longer run with no standby must lose energy: %v", c.NetSavingsPct)
	}
}

func TestExtraDynamicSubtracted(t *testing.T) {
	m := hotModel()
	cfg := dl1Cfg()
	lines := uint64(cfg.Sets() * cfg.Assoc)
	base := mkMeas(1_000_000, 0, 0)
	techA := mkMeas(1_000_000, lines*800_000, 0)
	techB := mkMeas(1_000_000, lines*800_000, 2e-6) // 2 uJ of extra dynamic
	a := mustCmp(Compare(m, cfg, leakage.ModeGated, base, techA, 5.6e9))
	b := mustCmp(Compare(m, cfg, leakage.ModeGated, base, techB, 5.6e9))
	if b.NetSavingsPct >= a.NetSavingsPct {
		t.Fatal("extra dynamic energy did not reduce net savings")
	}
	wantDrop := 100 * 2e-6 / a.BaseLeakJ
	if math.Abs((a.NetSavingsPct-b.NetSavingsPct)-wantDrop) > 0.01 {
		t.Fatalf("dynamic overhead accounting off: drop %v, want %v",
			a.NetSavingsPct-b.NetSavingsPct, wantDrop)
	}
}

func TestTemperatureRaisesSavings(t *testing.T) {
	// The same timing run yields higher net savings at 110C than 85C
	// because the leakage being saved is exponentially larger while the
	// dynamic overheads are fixed (paper Figures 7 vs 8).
	cfg := dl1Cfg()
	lines := uint64(cfg.Sets() * cfg.Assoc)
	base := mkMeas(1_000_000, 0, 0)
	tech := mkMeas(1_010_000, lines*800_000, 1e-6)

	m := leakage.New(p70())
	m.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(85), Vdd: 0.9})
	cool := mustCmp(Compare(m, cfg, leakage.ModeGated, base, tech, 5.6e9))
	m.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(110), Vdd: 0.9})
	hot := mustCmp(Compare(m, cfg, leakage.ModeGated, base, tech, 5.6e9))
	if hot.NetSavingsPct <= cool.NetSavingsPct {
		t.Fatalf("savings at 110C (%v) not above 85C (%v)", hot.NetSavingsPct, cool.NetSavingsPct)
	}
}

func TestBreakdownIdentity(t *testing.T) {
	// gross - residual - hardware - dynamic == net, up to the runtime
	// leakage extension term (which is folded into TechLeakJ).
	m := hotModel()
	cfg := dl1Cfg()
	lines := uint64(cfg.Sets() * cfg.Assoc)
	base := mkMeas(1_000_000, 0, 0)
	tech := mkMeas(1_000_000, lines*700_000, 5e-7)
	c := mustCmp(Compare(m, cfg, leakage.ModeGated, base, tech, 5.6e9))
	lhs := c.GrossSavingsPct - c.ResidualPct - c.HardwarePct - c.DynOverheadPct
	if math.Abs(lhs-c.NetSavingsPct) > 0.01 {
		t.Fatalf("breakdown identity violated: %v vs net %v", lhs, c.NetSavingsPct)
	}
}

func TestTotalDynSums(t *testing.T) {
	r := RunMeasurement{DCacheDynJ: 1, L2DynJ: 2, MemDynJ: 3, ICacheDynJ: 4, ClockJ: 5}
	if r.TotalDynJ() != 15 {
		t.Fatalf("TotalDynJ = %v", r.TotalDynJ())
	}
}

func TestTagsAwakeRaisesStandbyLinePower(t *testing.T) {
	// Section 5.3: keeping tags live forfeits their share of the
	// reclaimed leakage.
	m := hotModel()
	cfg := dl1Cfg()
	decayed := NewCacheLeakProfileTags(m, cfg, leakage.ModeDrowsy, true)
	awake := NewCacheLeakProfileTags(m, cfg, leakage.ModeDrowsy, false)
	if awake.LineStandby <= decayed.LineStandby {
		t.Fatalf("tags-awake standby %v not above tags-decayed %v",
			awake.LineStandby, decayed.LineStandby)
	}
	if awake.LineActive != decayed.LineActive {
		t.Fatal("active line power must not depend on the tag-decay choice")
	}
}

func TestDegenerateRunsAreTypedErrors(t *testing.T) {
	// A cancelled-then-resumed cell can surface a measurement with zero
	// committed instructions or cycles; scoring it used to leak NaN/Inf
	// percentages into figures and stored results.
	m := hotModel()
	cfg := dl1Cfg()
	good := mkMeas(1_000_000, 0, 0)
	cases := []struct {
		name       string
		base, tech RunMeasurement
		clockHz    float64
	}{
		{"zero-cycle baseline", RunMeasurement{Instructions: 5}, good, 5.6e9},
		{"zero-cycle technique", good, RunMeasurement{Instructions: 5}, 5.6e9},
		{"zero-instruction baseline", RunMeasurement{Cycles: 5}, good, 5.6e9},
		{"zero-instruction technique", good, RunMeasurement{Cycles: 5}, 5.6e9},
		{"empty runs", RunMeasurement{}, RunMeasurement{}, 5.6e9},
		{"zero clock", good, good, 0},
		{"negative clock", good, good, -1},
	}
	for _, tc := range cases {
		c, err := Compare(m, cfg, leakage.ModeGated, tc.base, tc.tech, tc.clockHz)
		if !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s: err = %v, want ErrDegenerate", tc.name, err)
		}
		if c != (Comparison{}) {
			t.Errorf("%s: non-zero comparison returned alongside the error", tc.name)
		}
	}
}

func TestComparisonsNeverNaN(t *testing.T) {
	// Every accepted comparison must have finite percentage fields.
	m := hotModel()
	cfg := dl1Cfg()
	base := mkMeas(1_000_000, 0, 0)
	tech := mkMeas(1_200_000, 12345, 1e-7)
	c := mustCmp(Compare(m, cfg, leakage.ModeGated, base, tech, 5.6e9))
	for name, v := range map[string]float64{
		"net": c.NetSavingsPct, "perf": c.PerfLossPct, "turnoff": c.TurnoffRatio,
		"gross": c.GrossSavingsPct, "residual": c.ResidualPct,
		"hardware": c.HardwarePct, "dyn": c.DynOverheadPct,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

func TestCompareTagsReducesSavings(t *testing.T) {
	m := hotModel()
	cfg := dl1Cfg()
	lines := uint64(cfg.Sets() * cfg.Assoc)
	base := mkMeas(1_000_000, 0, 0)
	tech := mkMeas(1_000_000, lines*800_000, 0)
	dec := mustCmp(CompareTags(m, cfg, leakage.ModeDrowsy, true, base, tech, 5.6e9))
	awk := mustCmp(CompareTags(m, cfg, leakage.ModeDrowsy, false, base, tech, 5.6e9))
	if awk.NetSavingsPct >= dec.NetSavingsPct {
		t.Fatalf("tags-awake savings %v not below tags-decayed %v",
			awk.NetSavingsPct, dec.NetSavingsPct)
	}
}
