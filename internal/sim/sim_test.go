package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hotleakage/internal/adaptive"
	"hotleakage/internal/energy"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// mustT unwraps a (value, error) pair inside a test; the configurations
// used by tests are known good, so an error is itself a test bug.
func mustT[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// fastMachine shrinks run length for test speed.
func fastMachine(l2 int) MachineConfig {
	mc := DefaultMachine(l2)
	mc.Warmup = 60_000
	mc.Instructions = 120_000
	return mc
}

func TestDefaultMachineIsTable2(t *testing.T) {
	mc := DefaultMachine(11)
	if mc.CPU.RUUSize != 80 || mc.CPU.LSQSize != 40 || mc.CPU.IssueWidth != 4 {
		t.Fatalf("core config not Table 2: %+v", mc.CPU)
	}
	if mc.L1D.SizeBytes != 64<<10 || mc.L1D.Assoc != 2 || mc.L1D.LineBytes != 64 || mc.L1D.HitLatency != 2 {
		t.Fatalf("L1D not Table 2: %+v", mc.L1D)
	}
	if mc.L1I.HitLatency != 1 {
		t.Fatalf("L1I latency: %+v", mc.L1I)
	}
	if mc.L2.SizeBytes != 2<<20 || mc.L2.HitLatency != 11 {
		t.Fatalf("L2 not Table 2: %+v", mc.L2)
	}
	if mc.MemLatency != 100 {
		t.Fatalf("memory latency %d", mc.MemLatency)
	}
	if mc.Tech.ClockHz != 5.6e9 {
		t.Fatal("not the 5600 MHz 70nm machine")
	}
}

func TestRunOneProducesMeasurement(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	r := mustT(RunOne(context.Background(), fastMachine(11), prof, leakctl.DefaultParams(leakctl.TechGated, 4096), nil))
	m := r.Measurement
	if m.Cycles == 0 || m.Instructions < 120_000 {
		t.Fatalf("degenerate run: %+v", m)
	}
	if m.StandbyLineCycles == 0 {
		t.Fatal("no standby time recorded for gated run")
	}
	if m.DCacheDynJ <= 0 || m.L2DynJ <= 0 || m.ClockJ <= 0 {
		t.Fatalf("energy meters empty: %+v", m)
	}
	if r.TurnoffRat <= 0 || r.TurnoffRat >= 1 {
		t.Fatalf("turnoff ratio %v", r.TurnoffRat)
	}
}

func TestBaselineCaching(t *testing.T) {
	s := NewSuite(fastMachine(11))
	prof, _ := workload.ByName("mcf")
	a := mustT(s.Baseline(context.Background(), prof))
	b := mustT(s.Baseline(context.Background(), prof))
	if a.Measurement != b.Measurement {
		t.Fatal("baseline not cached / not deterministic")
	}
}

func TestEvaluateProducesSaneComparison(t *testing.T) {
	mc := fastMachine(11)
	s := NewSuite(mc)
	m := leakage.New(mc.Tech)
	prof, _ := workload.ByName("gcc")
	p := mustT(s.Evaluate(context.Background(), prof, leakctl.DefaultParams(leakctl.TechDrowsy, 4096), 110, m, nil))
	if p.Cmp.NetSavingsPct < 10 || p.Cmp.NetSavingsPct > 95 {
		t.Fatalf("drowsy net savings %v implausible", p.Cmp.NetSavingsPct)
	}
	if p.Cmp.PerfLossPct < 0 || p.Cmp.PerfLossPct > 15 {
		t.Fatalf("perf loss %v implausible", p.Cmp.PerfLossPct)
	}
	if !strings.Contains(p.String(), "drowsy") {
		t.Fatalf("Point.String: %q", p.String())
	}
}

// TestGatedTagDecayChangesNoCounter: under gated-Vss, whether the tags
// decay only decides how their leakage is scored (the tag-wake stall is
// drowsy's and RBB's). A fixed-interval, a per-line adaptive and a
// feedback-controlled run each give the same RunResult, Params apart,
// with the tags awake as with them decayed.
func TestGatedTagDecayChangesNoCounter(t *testing.T) {
	ctx := context.Background()
	mc := fastMachine(11)
	prof, _ := workload.ByName("twolf")
	for _, tc := range []struct {
		name              string
		perLine, feedback bool
	}{{"fixed", false, false}, {"per-line", true, false}, {"feedback", false, true}} {
		run := func(decayTags bool) RunResult {
			p := leakctl.DefaultParams(leakctl.TechGated, DefaultInterval)
			p.PerLineAdaptive = tc.perLine
			p.DecayTags = decayTags
			var ad leakctl.Adapter
			if tc.feedback {
				ad = adaptive.NewFeedback(DefaultInterval, 8)
			}
			r := mustT(RunOne(ctx, mc, prof, p, ad))
			r.Params = leakctl.Params{}
			return r
		}
		decayed, awake := run(true), run(false)
		if decayed.DStats.InducedMisses == 0 {
			t.Fatalf("%s: no induced misses; the comparison shows nothing", tc.name)
		}
		if !reflect.DeepEqual(decayed, awake) {
			t.Errorf("%s: keeping the tags awake changed a gated run's counters", tc.name)
		}
	}
}

// TestEvaluateRunScoresTheTagsARunKeeps: EvaluateRun scores a run whose
// tags stay awake as CompareTags with decayTags false, so it is not
// credited the tags' leakage, and a run whose tags decay as CompareTags
// with decayTags true.
func TestEvaluateRunScoresTheTagsARunKeeps(t *testing.T) {
	ctx := context.Background()
	mc := fastMachine(11)
	s := NewSuite(mc)
	m := leakage.New(mc.Tech)
	prof, _ := workload.ByName("gzip")
	base := mustT(s.Baseline(ctx, prof))
	savings := map[bool]float64{}
	for _, decayTags := range []bool{false, true} {
		p := leakctl.DefaultParams(leakctl.TechGated, DefaultInterval)
		p.DecayTags = decayTags
		run := mustT(RunOne(ctx, mc, prof, p, nil))
		got := mustT(s.EvaluateRun(ctx, prof, run, 110, m))
		want := mustT(energy.CompareTags(m, mc.L1D, leakage.ModeGated, decayTags,
			base.Measurement, run.Measurement, mc.Tech.ClockHz))
		if got.Cmp != want {
			t.Errorf("decayTags=%v: EvaluateRun scored %+v, CompareTags %+v", decayTags, got.Cmp, want)
		}
		savings[decayTags] = got.Cmp.NetSavingsPct
	}
	if savings[false] >= savings[true] {
		t.Errorf("awake tags saved %.2f %%, decayed %.2f %%: awake tags must save less", savings[false], savings[true])
	}
}

func TestFigureFormatting(t *testing.T) {
	f := Figure{
		ID: "Figure X", Title: "test", Metric: "net savings %",
		Bench:  []string{"gcc", "mcf"},
		Drowsy: []float64{50, 60},
		Gated:  []float64{55, 65},
	}
	out := f.String()
	for _, want := range []string{"Figure X", "gcc", "mcf", "AVG", "drowsy", "gated-vss"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	d, g := f.Avg()
	if d != 55 || g != 60 {
		t.Fatalf("Avg = %v/%v", d, g)
	}
}

func TestTable1ReflectsDefaults(t *testing.T) {
	out := Table1()
	if !strings.Contains(out, "3") || !strings.Contains(out, "30") {
		t.Fatalf("Table 1 missing settle values:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2(DefaultMachine(11))
	for _, want := range []string{"80-RUU", "40-LSQ", "64 KB", "2 MB", "100 cycles", "5600 MHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1Curves(t *testing.T) {
	curves := Figure1(DefaultMachine(11).Tech)
	if len(curves) != 4 {
		t.Fatal("Figure 1 must have four panels")
	}
	// 1a: linear in W/L (monotone increasing).
	a := curves[0]
	for i := 1; i < len(a.Y); i++ {
		if a.Y[i] <= a.Y[i-1] {
			t.Fatalf("1a not increasing at %d", i)
		}
	}
	// 1c: temperature curve strictly increasing.
	c := curves[2]
	for i := 1; i < len(c.Y); i++ {
		if c.Y[i] <= c.Y[i-1] {
			t.Fatalf("1c not increasing at %d", i)
		}
	}
	// 1d: decreasing then flat (the GIDL-floor saturation the paper
	// shows in Figure 1d).
	d := curves[3]
	last := len(d.Y) - 1
	if d.Y[0] <= d.Y[last] {
		t.Fatal("1d not decreasing overall")
	}
	if d.Y[last] != d.Y[last-1] {
		t.Fatal("1d does not saturate beyond the GIDL threshold")
	}
	if !strings.Contains(d.String(), "Vth") {
		t.Fatal("curve formatting")
	}
}

func TestExperimentsRunCaching(t *testing.T) {
	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 30_000
	e.Profiles = e.Profiles[:2]
	prof := e.Profiles[0]
	a := mustT(e.run(prof, 11, leakctl.TechGated, 4096))
	b := mustT(e.run(prof, 11, leakctl.TechGated, 4096))
	if a.Measurement != b.Measurement {
		t.Fatal("run caching broken")
	}
}

func TestLatencyFigureSmoke(t *testing.T) {
	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 30_000
	e.Profiles = e.Profiles[:3]
	sav, perf := e.LatencyFigure("S", "P", 5, 110, 4096)
	if len(sav.Bench) != 3 || len(perf.Bench) != 3 {
		t.Fatalf("figure sizes: %d/%d", len(sav.Bench), len(perf.Bench))
	}
	for i := range sav.Bench {
		if sav.Drowsy[i] < -100 || sav.Drowsy[i] > 100 {
			t.Errorf("%s drowsy savings %v out of range", sav.Bench[i], sav.Drowsy[i])
		}
		if perf.Gated[i] < 0 {
			t.Errorf("%s negative perf loss %v", perf.Bench[i], perf.Gated[i])
		}
	}
}

func TestIntervalCurveOrdering(t *testing.T) {
	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 30_000
	pts := e.IntervalCurve("gcc", leakctl.TechGated, 11, 110)
	if len(pts) != len(SweepIntervals) {
		t.Fatalf("curve has %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Interval <= pts[i-1].Interval {
			t.Fatal("curve not sorted by interval")
		}
	}
	if pts := e.IntervalCurve("nonesuch", leakctl.TechGated, 11, 110); pts != nil {
		t.Fatal("unknown benchmark should yield nil")
	}
}

func TestAdaptiveRunHooksIn(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	ad := &countingAdapter{iv: 2048}
	mustT(RunOne(context.Background(), fastMachine(11), prof, leakctl.DefaultParams(leakctl.TechGated, 65536), ad))
	if ad.calls == 0 {
		t.Fatal("adapter never consulted")
	}
}

type countingAdapter struct {
	iv    uint64
	calls int
}

func (a *countingAdapter) Recommend(uint64, leakctl.Stats) uint64 {
	a.calls++
	return a.iv
}
func (a *countingAdapter) Every() uint64 { return 8192 }

func TestIL1ControlProducesIL1Measurement(t *testing.T) {
	mc := fastMachine(11)
	il1 := leakctl.DefaultParams(leakctl.TechDrowsy, 4096)
	mc.IL1Control = &il1
	prof, _ := workload.ByName("gcc")
	r := mustT(RunOne(context.Background(), mc, prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil))
	if r.IL1Meas == nil || r.IL1Stats == nil {
		t.Fatal("I-cache control produced no I-cache measurement")
	}
	if r.IL1Meas.StandbyLineCycles == 0 {
		t.Fatal("controlled I-cache recorded no standby time")
	}
	if r.IL1Turnoff <= 0 || r.IL1Turnoff >= 1 {
		t.Fatalf("I-cache turnoff ratio %v", r.IL1Turnoff)
	}
	// Hot code means the I-cache sleeps less than a D-cache would.
	if r.IL1Stats.SlowHits == 0 {
		t.Fatal("drowsy I-cache never woke a line")
	}
}

func TestPlainRunHasNoIL1Measurement(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	r := mustT(RunOne(context.Background(), fastMachine(11), prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil))
	if r.IL1Meas != nil || r.IL1Stats != nil {
		t.Fatal("uncontrolled I-cache produced control measurements")
	}
}
