package sim

import (
	"sync"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/stats"
)

// These integration tests pin the paper's qualitative findings — the whole
// point of the reproduction. They simulate at reduced scale (a few hundred
// thousand instructions per run) and therefore assert orderings and bands,
// not absolute numbers. They are skipped under -short.

var (
	shapeOnce sync.Once
	shapeExp  *Experiments
)

// shapeExperiments runs at a scale big enough for stable orderings; the
// instance (and its run cache) is shared across all shape tests.
func shapeExperiments(t *testing.T) *Experiments {
	t.Helper()
	if testing.Short() {
		t.Skip("shape tests are long; skipped under -short")
	}
	if raceDetectorEnabled {
		// Full-length runs are ~10x slower under the race detector and
		// blow the package test timeout. These tests assert numeric
		// orderings, not concurrency; the parallel paths are raced by
		// attempt_test.go and batch_test.go.
		t.Skip("shape tests exceed the race-mode package timeout")
	}
	shapeOnce.Do(func() {
		shapeExp = NewExperiments()
		shapeExp.Warmup = 250_000
		shapeExp.Instructions = 600_000
	})
	return shapeExp
}

func TestShapeFastL2FavoursGated(t *testing.T) {
	// Paper Section 5.1: "for 5-8 cycle L2 caches, gated-Vss is superior
	// to drowsy cache in terms of both energy savings and performance
	// loss. At 5 cycles, gated-Vss is almost uniformly superior."
	e := shapeExperiments(t)
	sav, perf := e.Figure3_4()
	sd, sg := sav.Avg()
	if sg <= sd {
		t.Errorf("L2=5: gated avg savings %.1f not above drowsy %.1f", sg, sd)
	}
	pd, pg := perf.Avg()
	if pg >= pd {
		t.Errorf("L2=5: gated avg perf loss %.2f not below drowsy %.2f", pg, pd)
	}
	// "Almost uniformly": gated wins savings on a clear majority of
	// benchmarks.
	wins := 0
	for i := range sav.Bench {
		if sav.Gated[i] > sav.Drowsy[i] {
			wins++
		}
	}
	if wins < (len(sav.Bench)+1)/2+1 {
		t.Errorf("L2=5: gated wins only %d/%d benchmarks", wins, len(sav.Bench))
	}
}

func TestShapeSlowL2FavoursDrowsy(t *testing.T) {
	// Paper: "at 17 cycles, drowsy cache becomes clearly superior."
	e := shapeExperiments(t)
	sav, _ := e.Figure10_11()
	sd, sg := sav.Avg()
	if sd <= sg+2 {
		t.Errorf("L2=17: drowsy %.1f not clearly above gated %.1f", sd, sg)
	}
}

func TestShapeMidL2Mixed(t *testing.T) {
	// Paper: "at 11 cycles, the picture is less clear ... drowsy and
	// gated-Vss are better for about an equal number of benchmarks."
	e := shapeExperiments(t)
	sav, _ := e.Figure8_9()
	sd, sg := sav.Avg()
	if d := sd - sg; d > 8 || d < -8 {
		t.Errorf("L2=11: averages should be close, got drowsy %.1f vs gated %.1f", sd, sg)
	}
	gatedWins := 0
	for i := range sav.Bench {
		if sav.Gated[i] > sav.Drowsy[i] {
			gatedWins++
		}
	}
	if gatedWins == 0 || gatedWins == len(sav.Bench) {
		t.Errorf("L2=11: expected a split decision, gated wins %d/%d", gatedWins, len(sav.Bench))
	}
}

func TestShapeGatedDegradesWithL2Latency(t *testing.T) {
	// The longer the L2 latency, the less gated-Vss saves; drowsy is
	// nearly flat (its standby penalty never touches L2).
	e := shapeExperiments(t)
	f5, _ := e.Figure3_4()
	f11, _ := e.Figure8_9()
	f17, _ := e.Figure10_11()
	_, g5 := f5.Avg()
	_, g11 := f11.Avg()
	_, g17 := f17.Avg()
	if !(g5 > g11 && g11 > g17) {
		t.Errorf("gated savings not declining with latency: %.1f %.1f %.1f", g5, g11, g17)
	}
	d5, _ := f5.Avg()
	d17, _ := f17.Avg()
	if d := d17 - d5; d > 3 || d < -3 {
		t.Errorf("drowsy savings should be latency-insensitive: %.1f at 5cy vs %.1f at 17cy", d5, d17)
	}
}

func TestShapeTemperatureRaisesSavings(t *testing.T) {
	// Paper Section 5.2 / Figures 7 vs 8: energy savings are much
	// higher at 110C than at 85C for both schemes.
	e := shapeExperiments(t)
	f85 := e.Figure7()
	f110, _ := e.Figure8_9()
	d85, g85 := f85.Avg()
	d110, g110 := f110.Avg()
	if d110 <= d85 || g110 <= g85 {
		t.Errorf("savings not higher at 110C: drowsy %.1f->%.1f gated %.1f->%.1f",
			d85, d110, g85, g110)
	}
}

func TestShapeAdaptivityHelpsGatedMost(t *testing.T) {
	// Paper Section 5.4: best per-benchmark intervals improve gated-Vss
	// savings substantially and cut its performance loss hard; drowsy
	// only improves a little.
	e := shapeExperiments(t)
	fixSav := e.Figure7() // 85C, default interval
	bestSav, bestPerf := e.Figure12_13()
	_, gFix := fixSav.Avg()
	dFix, _ := fixSav.Avg()
	dBest, gBest := bestSav.Avg()

	gGain := gBest - gFix
	dGain := dBest - dFix
	if gGain < 4 {
		t.Errorf("gated gains only %.1f points from adaptivity", gGain)
	}
	if dGain >= gGain {
		t.Errorf("adaptivity should primarily benefit gated: gated +%.1f, drowsy +%.1f", gGain, dGain)
	}

	// Perf loss at the best interval: gated well under 1%.
	_, gPerf := bestPerf.Avg()
	if gPerf > 1.0 {
		t.Errorf("gated best-interval perf loss %.2f%% not small", gPerf)
	}
}

func TestShapeTable3Spread(t *testing.T) {
	// Paper Table 3: "the best decay intervals vary so widely" for
	// gated-Vss; drowsy's cluster short. gzip and crafty demand the
	// longest gated intervals (their long-gap reuse is expensive to
	// kill); drowsy never needs more than a medium interval.
	e := shapeExperiments(t)
	dr, gt := e.SweepBest(11, 85)
	byName := func(rs []BestIntervalResult, n string) BestIntervalResult {
		for _, r := range rs {
			if r.Bench == n {
				return r
			}
		}
		t.Fatalf("missing %s", n)
		return BestIntervalResult{}
	}

	var gtIv, drIv []float64
	for i := range gt {
		gtIv = append(gtIv, float64(gt[i].Interval))
		drIv = append(drIv, float64(dr[i].Interval))
	}
	if stats.Max(gtIv)/stats.Min(gtIv) < 4 {
		t.Errorf("gated best intervals not spread widely: %v", gtIv)
	}
	if stats.Mean(gtIv) <= stats.Mean(drIv) {
		t.Errorf("gated best intervals (%v) not longer on average than drowsy (%v)",
			stats.Mean(gtIv), stats.Mean(drIv))
	}
	// The long-reuse benchmarks need patient gated decay.
	if g := byName(gt, "gzip"); g.Interval < 16384 {
		t.Errorf("gzip gated best interval %d, want >= 16K", g.Interval)
	}
	if c := byName(gt, "crafty"); c.Interval < 16384 {
		t.Errorf("crafty gated best interval %d, want >= 16K", c.Interval)
	}
}

func TestShapeGatedPerfGrowsWithLatency(t *testing.T) {
	e := shapeExperiments(t)
	_, p5 := e.Figure3_4()
	_, p17 := e.Figure10_11()
	_, g5 := p5.Avg()
	_, g17 := p17.Avg()
	if g17 <= g5 {
		t.Errorf("gated perf loss should grow with L2 latency: %.2f at 5cy vs %.2f at 17cy", g5, g17)
	}
}

func TestShapeResidualOrderingDrivesNetGap(t *testing.T) {
	// At equal turnoff the gap between the techniques' residual terms
	// must favour gated (reason #1 in the paper's list of five).
	e := shapeExperiments(t)
	sav, _ := e.Figure8_9()
	for i, bench := range sav.Bench {
		dr := mustT(e.run(e.Profiles[i], 11, leakctl.TechDrowsy, DefaultInterval))
		gt := mustT(e.run(e.Profiles[i], 11, leakctl.TechGated, DefaultInterval))
		base := mustT(e.run(e.Profiles[i], 11, leakctl.TechNone, 0))
		m := e.model(11)
		dp := mustT(Score(e.machine(11), m, base, dr, 110))
		gp := mustT(Score(e.machine(11), m, base, gt, 110))
		if gp.Cmp.ResidualPct >= dp.Cmp.ResidualPct {
			t.Errorf("%s: gated residual %.1f not below drowsy %.1f",
				bench, gp.Cmp.ResidualPct, dp.Cmp.ResidualPct)
		}
	}
}
