// Adaptive decay: the paper's Section 5.4. Gated-Vss benefits dramatically
// from per-benchmark decay intervals because the best interval varies so
// widely (Table 3). This example compares, for each benchmark:
//
//   - a fixed default interval,
//   - the oracle best interval from an offline sweep (Figures 12-13), and
//   - the runtime feedback controller (tags stay awake, induced misses are
//     counted, a small state machine doubles/halves the interval register).
//
// go run ./examples/adaptive_decay
package main

import (
	"context"
	"fmt"
	"log"

	"hotleakage/internal/adaptive"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/sim"
	"hotleakage/internal/workload"
)

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	ctx := context.Background()
	mc := sim.DefaultMachine(11)
	mc.Warmup = 150_000
	mc.Instructions = 400_000
	suite := sim.NewSuite(mc)
	model := leakage.New(mc.Tech)
	const tempC = 85.0 // the paper's Figure 12 operating point

	e := sim.NewExperiments()
	e.Instructions = mc.Instructions
	e.Warmup = mc.Warmup

	fmt.Printf("gated-Vss net savings %% at %.0fC, L2=11 (fixed %d vs oracle vs feedback)\n",
		tempC, sim.DefaultInterval)
	fmt.Printf("%-8s %8s %14s %16s %9s\n", "bench", "fixed", "oracle(best iv)", "feedback(iv end)", "changes")

	var fxSum, orSum, fbSum float64
	profiles := workload.Profiles()
	for _, prof := range profiles {
		fixed := must(suite.EvaluateRun(ctx, prof,
			must(sim.RunOne(ctx, mc, prof, leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval), nil)),
			tempC, model))

		// Oracle: best interval from the sweep.
		best := fixed
		bestIv := uint64(sim.DefaultInterval)
		for _, p := range e.IntervalCurve(prof.Name, leakctl.TechGated, 11, tempC) {
			if p.Cmp.NetSavingsPct > best.Cmp.NetSavingsPct {
				best = p
				bestIv = p.Interval
			}
		}

		// Feedback controller, started from the default interval. It
		// counts induced misses, which only a kept tag reveals, so its
		// tags stay awake and are scored that way.
		ctl := adaptive.NewFeedback(sim.DefaultInterval, 8)
		awake := leakctl.DefaultParams(leakctl.TechGated, sim.DefaultInterval)
		awake.DecayTags = false
		fb := must(suite.EvaluateRun(ctx, prof,
			must(sim.RunOne(ctx, mc, prof, awake, ctl)),
			tempC, model))

		fmt.Printf("%-8s %8.1f %8.1f (%3dk) %8.1f (%3dk) %9d\n",
			prof.Name, fixed.Cmp.NetSavingsPct,
			best.Cmp.NetSavingsPct, bestIv/1024,
			fb.Cmp.NetSavingsPct, ctl.Interval()/1024, ctl.Changes)
		fxSum += fixed.Cmp.NetSavingsPct
		orSum += best.Cmp.NetSavingsPct
		fbSum += fb.Cmp.NetSavingsPct
	}
	n := float64(len(profiles))
	fmt.Printf("%-8s %8.1f %8.1f %15.1f\n", "AVG", fxSum/n, orSum/n, fbSum/n)
	fmt.Println("\nScored with the tags it keeps awake, the controller recovers under a")
	fmt.Println("third of the oracle's headroom with no offline profiling, and rescues")
	fmt.Println("the worst fixed-interval case (crafty) outright — the paper's argument")
	fmt.Println("for adaptive gated-Vss. The per-line scheme")
	fmt.Println("(BenchmarkAblationPerLineAdaptive) gains more.")
}
