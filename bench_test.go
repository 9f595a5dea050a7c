// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Each benchmark runs the corresponding experiment at a reduced scale
// (BENCH_INSTR committed instructions per run instead of the paper's 500M)
// and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the series the paper's bar charts show. Run with -v (and
// -benchtime=1x) to get the full per-benchmark tables via b.Log. Results
// are cached within a benchmark, so extra b.N iterations are cheap.
package hotleakage_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"hotleakage/internal/adaptive"
	"hotleakage/internal/decay"
	"hotleakage/internal/energy"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/sim"
	"hotleakage/internal/tech"
	"hotleakage/internal/workload"
)

const (
	benchWarmup = 120_000
	benchInstr  = 300_000
)

// ctx0 is the benchmarks' context; they run uninterrupted.
var ctx0 = context.Background()

// must unwraps a (value, error) pair; benchmark configurations are known
// good, so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// experiments is shared across benchmarks so the run cache amortizes.
var (
	expOnce sync.Once
	exp     *sim.Experiments
)

func experiments() *sim.Experiments {
	expOnce.Do(func() {
		exp = sim.NewExperiments()
		exp.Warmup = benchWarmup
		exp.Instructions = benchInstr
	})
	return exp
}

// reportPair publishes a savings/perf figure pair as benchmark metrics.
func reportPair(b *testing.B, sav, perf sim.Figure) {
	b.Helper()
	sd, sg := sav.Avg()
	pd, pg := perf.Avg()
	b.ReportMetric(sd, "savings%/drowsy")
	b.ReportMetric(sg, "savings%/gated")
	b.ReportMetric(pd, "perfloss%/drowsy")
	b.ReportMetric(pg, "perfloss%/gated")
	b.Log("\n" + sav.String() + "\n" + perf.String())
}

func BenchmarkFigure1(b *testing.B) {
	p := tech.MustByNode(tech.Node70)
	var curves [4]sim.Curve
	for i := 0; i < b.N; i++ {
		curves = sim.Figure1(p)
	}
	// Headline: the 300K -> 383K leakage growth factor (panel 1c).
	c := curves[2]
	b.ReportMetric(c.Y[len(c.Y)-1]/c.Y[0], "leak-growth-300K-400K")
	for _, cv := range curves {
		b.Log("\n" + cv.String())
	}
}

func BenchmarkTable1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = sim.Table1()
	}
	b.Log("\n" + out)
}

func BenchmarkTable2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = sim.Table2(sim.DefaultMachine(11))
	}
	b.Log("\n" + out)
}

func BenchmarkFigure3_4(b *testing.B) {
	e := experiments()
	var sav, perf sim.Figure
	for i := 0; i < b.N; i++ {
		sav, perf = e.Figure3_4()
	}
	reportPair(b, sav, perf)
}

func BenchmarkFigure5_6(b *testing.B) {
	e := experiments()
	var sav, perf sim.Figure
	for i := 0; i < b.N; i++ {
		sav, perf = e.Figure5_6()
	}
	reportPair(b, sav, perf)
}

func BenchmarkFigure7(b *testing.B) {
	e := experiments()
	var sav sim.Figure
	for i := 0; i < b.N; i++ {
		sav = e.Figure7()
	}
	sd, sg := sav.Avg()
	b.ReportMetric(sd, "savings%/drowsy")
	b.ReportMetric(sg, "savings%/gated")
	b.Log("\n" + sav.String())
}

func BenchmarkFigure8_9(b *testing.B) {
	e := experiments()
	var sav, perf sim.Figure
	for i := 0; i < b.N; i++ {
		sav, perf = e.Figure8_9()
	}
	reportPair(b, sav, perf)
}

func BenchmarkFigure10_11(b *testing.B) {
	e := experiments()
	var sav, perf sim.Figure
	for i := 0; i < b.N; i++ {
		sav, perf = e.Figure10_11()
	}
	reportPair(b, sav, perf)
}

func BenchmarkFigure12_13(b *testing.B) {
	e := experiments()
	var sav, perf sim.Figure
	for i := 0; i < b.N; i++ {
		sav, perf = e.Figure12_13()
	}
	reportPair(b, sav, perf)
}

func BenchmarkTable3(b *testing.B) {
	e := experiments()
	var out string
	for i := 0; i < b.N; i++ {
		out = e.Table3()
	}
	b.Log("\n" + out)
}

// --- Ablations -------------------------------------------------------

// benchMachine is the shared ablation machine (11-cycle L2).
func benchMachine() sim.MachineConfig {
	mc := sim.DefaultMachine(11)
	mc.Warmup = benchWarmup
	mc.Instructions = benchInstr
	return mc
}

// ablationBenches is the subset used by the ablation studies.
var ablationBenches = []string{"gcc", "gzip", "twolf", "crafty"}

// runAblation evaluates params over the ablation subset and returns the
// average net savings and perf loss at 110C.
func runAblation(mc sim.MachineConfig, params leakctl.Params, adapter leakctl.Adapter) (sav, perf float64) {
	suite := sim.NewSuite(mc)
	model := leakage.New(mc.Tech)
	for _, name := range ablationBenches {
		prof, _ := workload.ByName(name)
		run := must(sim.RunOne(ctx0, mc, prof, params, adapter))
		p := must(suite.EvaluateRun(ctx0, prof, run, 110, model))
		sav += p.Cmp.NetSavingsPct
		perf += p.Cmp.PerfLossPct
	}
	n := float64(len(ablationBenches))
	return sav / n, perf / n
}

// BenchmarkAblationPolicy compares the drowsy paper's two deactivation
// policies under identical hardware (Section 2.3).
func BenchmarkAblationPolicy(b *testing.B) {
	mc := benchMachine()
	var naS, naP, siS, siP float64
	for i := 0; i < b.N; i++ {
		pNA := leakctl.DefaultParams(leakctl.TechDrowsy, sim.DefaultInterval)
		pNA.Policy = decay.PolicyNoAccess
		naS, naP = runAblation(mc, pNA, nil)
		pSI := leakctl.DefaultParams(leakctl.TechDrowsy, sim.DefaultInterval)
		pSI.Policy = decay.PolicySimple
		siS, siP = runAblation(mc, pSI, nil)
	}
	b.ReportMetric(naS, "savings%/noaccess")
	b.ReportMetric(siS, "savings%/simple")
	b.ReportMetric(naP, "perfloss%/noaccess")
	b.ReportMetric(siP, "perfloss%/simple")
}

// BenchmarkAblationTagDecay reproduces the Section 5.3 discussion: keeping
// drowsy tags awake trims the performance loss but forfeits the tags' 5-10%
// of cache leakage.
func BenchmarkAblationTagDecay(b *testing.B) {
	mc := benchMachine()
	suite := sim.NewSuite(mc)
	model := leakage.New(mc.Tech)
	var onS, onP, offS, offP float64
	for i := 0; i < b.N; i++ {
		onS, onP, offS, offP = 0, 0, 0, 0
		for _, name := range ablationBenches {
			prof, _ := workload.ByName(name)
			pd := leakctl.DefaultParams(leakctl.TechDrowsy, sim.DefaultInterval)
			run := must(sim.RunOne(ctx0, mc, prof, pd, nil))
			base := must(suite.Baseline(ctx0, prof))
			model.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(110), Vdd: mc.Tech.VddNominal})
			on := must(energy.CompareTags(model, mc.L1D, leakage.ModeDrowsy, true,
				base.Measurement, run.Measurement, mc.Tech.ClockHz))
			onS += on.NetSavingsPct
			onP += on.PerfLossPct

			pa := pd
			pa.DecayTags = false
			pa.WakeLatency = 1 // data-only wake: 1-2 cycles per the paper
			runAwake := must(sim.RunOne(ctx0, mc, prof, pa, nil))
			off := must(energy.CompareTags(model, mc.L1D, leakage.ModeDrowsy, false,
				base.Measurement, runAwake.Measurement, mc.Tech.ClockHz))
			offS += off.NetSavingsPct
			offP += off.PerfLossPct
		}
	}
	n := float64(len(ablationBenches))
	b.ReportMetric(onS/n, "savings%/tags-decayed")
	b.ReportMetric(offS/n, "savings%/tags-awake")
	b.ReportMetric(onP/n, "perfloss%/tags-decayed")
	b.ReportMetric(offP/n, "perfloss%/tags-awake")
}

// BenchmarkAblationRBB runs the third technique (state-preserving reverse
// body bias) as the paper's extension study.
func BenchmarkAblationRBB(b *testing.B) {
	mc := benchMachine()
	var s, p float64
	for i := 0; i < b.N; i++ {
		s, p = runAblation(mc, leakctl.DefaultParams(leakctl.TechRBB, sim.DefaultInterval), nil)
	}
	b.ReportMetric(s, "savings%/rbb")
	b.ReportMetric(p, "perfloss%/rbb")
}

// tagsAwake returns gated-Vss params that keep the tags awake. An adaptive
// controller that reads induced misses needs them: only a decayed line's
// kept tag tells an induced miss from a true one (Section 5.4), so its
// runs are scored without the tags' standby savings.
func tagsAwake() leakctl.Params {
	p := leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval)
	p.DecayTags = false
	return p
}

// BenchmarkAblationAdaptive compares fixed-interval gated-Vss against the
// Section 5.4 feedback controller, which runs with its tags awake.
func BenchmarkAblationAdaptive(b *testing.B) {
	mc := benchMachine()
	var fs, fp, as, ap float64
	for i := 0; i < b.N; i++ {
		fs, fp = runAblation(mc, leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval), nil)
		as, ap = 0, 0
		suite := sim.NewSuite(mc)
		model := leakage.New(mc.Tech)
		for _, name := range ablationBenches {
			prof, _ := workload.ByName(name)
			ctl := adaptive.NewFeedback(sim.DefaultInterval, 8)
			run := must(sim.RunOne(ctx0, mc, prof, tagsAwake(), ctl))
			pt := must(suite.EvaluateRun(ctx0, prof, run, 110, model))
			as += pt.Cmp.NetSavingsPct
			ap += pt.Cmp.PerfLossPct
		}
		as /= float64(len(ablationBenches))
		ap /= float64(len(ablationBenches))
	}
	b.ReportMetric(fs, "savings%/fixed")
	b.ReportMetric(as, "savings%/feedback")
	b.ReportMetric(fp, "perfloss%/fixed")
	b.ReportMetric(ap, "perfloss%/feedback")
}

// BenchmarkAblationPerLineAdaptive compares the three adaptive options the
// paper lists in Section 5.4: fixed interval, the Kaxiras-style per-line
// selectors (which promote a line on an induced miss, so run with the tags
// awake), and the feedback controller.
func BenchmarkAblationPerLineAdaptive(b *testing.B) {
	mc := benchMachine()
	var fixed, perline float64
	for i := 0; i < b.N; i++ {
		fixed, _ = runAblation(mc, leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval), nil)
		pl := tagsAwake()
		pl.PerLineAdaptive = true
		perline, _ = runAblation(mc, pl, nil)
	}
	b.ReportMetric(fixed, "savings%/fixed")
	b.ReportMetric(perline, "savings%/per-line")
}

// BenchmarkAblationICache extends leakage control to the L1 instruction
// cache (the paper studies only the D-cache) and reports the I-cache's own
// net savings under both techniques.
func BenchmarkAblationICache(b *testing.B) {
	mc := benchMachine()
	var drowsyS, gatedS float64
	for i := 0; i < b.N; i++ {
		for _, tq := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			params := leakctl.DefaultParams(tq, sim.DefaultInterval)
			mcI := mc
			mcI.IL1Control = &params
			suite := sim.NewSuite(mc) // baseline: no control anywhere
			model := leakage.New(mc.Tech)
			sum := 0.0
			for _, name := range ablationBenches {
				prof, _ := workload.ByName(name)
				run := must(sim.RunOne(ctx0, mcI, prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil))
				base := must(suite.Baseline(ctx0, prof))
				model.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(110), Vdd: mc.Tech.VddNominal})
				cmp := must(energy.Compare(model, mc.L1I, tq.Mode(),
					base.Measurement, *run.IL1Meas, mc.Tech.ClockHz))
				sum += cmp.NetSavingsPct
			}
			if tq == leakctl.TechDrowsy {
				drowsyS = sum / float64(len(ablationBenches))
			} else {
				gatedS = sum / float64(len(ablationBenches))
			}
		}
	}
	b.ReportMetric(drowsyS, "il1-savings%/drowsy")
	b.ReportMetric(gatedS, "il1-savings%/gated")
}

// BenchmarkAblationVariation quantifies the inter-die Monte Carlo's effect
// on the leakage magnitudes (Section 3.3).
func BenchmarkAblationVariation(b *testing.B) {
	p := tech.MustByNode(tech.Node70)
	var plain, varied float64
	for i := 0; i < b.N; i++ {
		m0 := leakage.New(p)
		m1 := leakage.New(p, leakage.WithVariation(leakage.DefaultVariation70nm()))
		env := leakage.Env{TempK: leakage.CelsiusToKelvin(110), Vdd: 0.9}
		m0.SetEnv(env)
		m1.SetEnv(env)
		plain = m0.StructurePower(leakage.SRAM6T, 64*1024*8, leakage.ModeActive)
		varied = m1.StructurePower(leakage.SRAM6T, 64*1024*8, leakage.ModeActive)
	}
	b.ReportMetric(1e3*plain, "mW/nominal")
	b.ReportMetric(1e3*varied, "mW/with-variation")
	b.ReportMetric(varied/plain, "variation-multiplier")
}

// BenchmarkAblationBackgroundPower sweeps the one deliberately calibrated
// whole-chip constant (ChipBackgroundW, see EXPERIMENTS.md) to expose how
// the drowsy/gated ranking at L2=11 depends on how much a cycle of extra
// runtime costs.
func BenchmarkAblationBackgroundPower(b *testing.B) {
	var lo, mid, hi float64 // gated-minus-drowsy average savings gap
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{0.3, 1.2, 3.0} {
			mc := benchMachine()
			mc.Tech.ChipBackgroundW = w
			dS, _ := runAblation(mc, leakctl.DefaultParams(leakctl.TechDrowsy, sim.DefaultInterval), nil)
			gS, _ := runAblation(mc, leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval), nil)
			switch w {
			case 0.3:
				lo = gS - dS
			case 1.2:
				mid = gS - dS
			default:
				hi = gS - dS
			}
		}
	}
	b.ReportMetric(lo, "gated-minus-drowsy/0.3W")
	b.ReportMetric(mid, "gated-minus-drowsy/1.2W")
	b.ReportMetric(hi, "gated-minus-drowsy/3.0W")
}

// BenchmarkAblationL2Latency sweeps the L2 latency for one benchmark,
// exposing the crossover the whole paper is about.
func BenchmarkAblationL2Latency(b *testing.B) {
	var gcc5, gcc17 float64
	for i := 0; i < b.N; i++ {
		for _, l2 := range []int{5, 17} {
			mc := sim.DefaultMachine(l2)
			mc.Warmup = benchWarmup
			mc.Instructions = benchInstr
			suite := sim.NewSuite(mc)
			model := leakage.New(mc.Tech)
			prof, _ := workload.ByName("gcc")
			run := must(sim.RunOne(ctx0, mc, prof, leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval), nil))
			p := must(suite.EvaluateRun(ctx0, prof, run, 110, model))
			if l2 == 5 {
				gcc5 = p.Cmp.NetSavingsPct
			} else {
				gcc17 = p.Cmp.NetSavingsPct
			}
		}
	}
	b.ReportMetric(gcc5, "gated-savings%/L2=5")
	b.ReportMetric(gcc17, "gated-savings%/L2=17")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (committed
// instructions per second), the practical limit on experiment scale.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := workload.ByName("gzip")
	mc := sim.DefaultMachine(11)
	mc.Warmup = 0
	mc.Instructions = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(sim.RunOne(ctx0, mc, prof, leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval), nil))
	}
	b.ReportMetric(float64(mc.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSuiteSweep measures end-to-end sweep throughput through the
// production path — cost-ordered GOMAXPROCS-sized worker pool and
// per-worker state reuse. Each iteration builds a fresh Experiments and
// regenerates one full figure pair (every benchmark: baseline + drowsy +
// gated), so the numbers include scheduling, simulation and evaluation.
// The variants isolate lockstep sharing: "full" is the default path (one
// group per benchmark, its lanes stepping off one shared front) and
// "onelane" sets DisableBatch, so every cell runs as a group of one lane
// with its own front. `make bench-batch` fails when "full" is the slower.
//
// Methodology: the variants are NOT separate sub-benchmarks. Sub-benchmarks
// run back to back, each in its own multi-second window, so slow drift in
// host conditions (CPU clocking, co-tenants on a shared VM — easily ±10%
// over minutes on the reference box) lands on whichever variant happens to
// run during the bad minutes and can invert an ordering outright. Instead
// every iteration runs both variants with per-variant stopwatches, in
// mirrored order (forward then reverse) so first-order drift WITHIN the
// iteration — the host speeding up or slowing down over the window —
// cancels out of the totals instead of systematically taxing whichever
// variant runs first. One untimed warmup sweep absorbs process cold-start
// (page cache, allocator growth, CPU clock ramp) before anything is timed.
// Per-variant throughput is reported as "<variant>:instr/s" custom metrics.
func BenchmarkSuiteSweep(b *testing.B) {
	variants := []struct {
		name      string
		configure func(*sim.Experiments)
	}{
		{"full", nil},
		{"onelane", func(e *sim.Experiments) { e.DisableBatch = true }},
	}
	b.ReportAllocs()
	elapsed := make([]time.Duration, len(variants))
	executed := make([]int, len(variants))
	runSweep := func(vi int, timed bool) {
		e := sim.NewExperiments()
		e.Warmup = benchWarmup
		e.Instructions = benchInstr
		if cfg := variants[vi].configure; cfg != nil {
			cfg(e)
		}
		start := time.Now()
		e.Figure8_9()
		if timed {
			elapsed[vi] += time.Since(start)
			executed[vi] = e.Executed()
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
	runSweep(0, false) // warmup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vi := 0; vi < len(variants); vi++ {
			runSweep(vi, true)
		}
		for vi := len(variants) - 1; vi >= 0; vi-- {
			runSweep(vi, true)
		}
	}
	perRun := float64(benchWarmup + benchInstr)
	for vi, v := range variants {
		b.ReportMetric(float64(executed[vi])*perRun*float64(2*b.N)/elapsed[vi].Seconds(),
			v.name+":instr/s")
	}
	b.ReportMetric(float64(executed[0]), "cells")
}
