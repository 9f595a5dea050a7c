// Command hotleak queries the HotLeakage model from the command line, in
// the spirit of the released HotLeakage tool: pick a technology node and an
// operating point and it reports unit leakage, per-cell leakage for the
// built-in cells in every standby mode, and the leakage power of an SRAM
// structure of a given size. It can also derive k_design factors for the
// built-in gate library (Section 3.1.2).
//
// Usage:
//
//	hotleak -node 70 -temp 110 -vdd 0.9
//	hotleak -node 70 -cells 524288          # e.g. a 64KB data array
//	hotleak -derive                         # k_design for the gate library
//	hotleak -variation                      # inter-die Monte Carlo multipliers
//	hotleak -compare gcc -timeout 2m        # full technique comparison
//
// The -compare mode runs real timing simulations; it honours SIGINT (the
// run stops cleanly) and an optional per-invocation -timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hotleakage/internal/harness/profiling"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/sim"
	"hotleakage/internal/tech"
	"hotleakage/internal/workload"
)

func main() {
	var (
		node     = flag.Int("node", 70, "technology node in nm (180, 130, 100, 70)")
		tempC    = flag.Float64("temp", 85, "operating temperature in Celsius")
		vdd      = flag.Float64("vdd", 0, "supply voltage (0 = node nominal)")
		cells    = flag.Int("cells", 64*1024*8, "SRAM cell count for the structure report")
		derive   = flag.Bool("derive", false, "derive k_design for the built-in gate library")
		vary     = flag.Bool("variation", false, "report inter-die variation multipliers")
		compare  = flag.String("compare", "", "run the drowsy vs gated-Vss comparison on a benchmark")
		timeout  = flag.Duration("timeout", 0, "deadline for -compare simulations (0 = none)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address during -compare")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = flag.String("trace", "", "write an execution trace to this file")
	)
	flag.Parse()

	p, err := tech.ByNode(tech.Node(*node))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *vdd == 0 {
		*vdd = p.VddNominal
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	opts := []leakage.Option{}
	if *vary {
		opts = append(opts, leakage.WithVariation(leakage.DefaultVariation70nm()))
	}
	if *compare != "" {
		if *metrics != "" {
			addr, shutdown, err := obs.Serve(*metrics, obs.Default)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer shutdown()
			fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
		}
		code := runCompare(*compare, *tempC, *timeout, opts)
		stopProf() // os.Exit skips the deferred stop
		os.Exit(code)
	}

	if *derive {
		fmt.Printf("k_design derivation (stack factor %.2f):\n", leakage.DefaultStackFactor)
		for _, g := range []leakage.Gate{leakage.Inverter(), leakage.NAND2(), leakage.NAND3(), leakage.NOR2()} {
			kd := leakage.DeriveKDesign(g, leakage.DefaultStackFactor)
			fmt.Printf("  %-6s k_n=%.3f k_p=%.3f\n", g.Name, kd.Kn, kd.Kp)
		}
		return
	}

	m := leakage.New(p, opts...)
	m.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(*tempC), Vdd: *vdd})

	fmt.Printf("HotLeakage @ %s, %.0f C, Vdd=%.2f V\n", p.Node, *tempC, *vdd)
	tK := leakage.CelsiusToKelvin(*tempC)
	fmt.Printf("unit subthreshold N: %.4e A   P: %.4e A\n",
		leakage.UnitSubthresholdNominal(p, p.N, 1, *vdd, tK),
		leakage.UnitSubthresholdNominal(p, p.P, 1, *vdd, tK))
	fmt.Printf("unit gate leakage:   %.4e A\n", leakage.UnitGate(p, 1, *vdd, tK))
	if *vary {
		v := m.Variation()
		fmt.Printf("variation multipliers: subN=%.3f subP=%.3f gate=%.3f\n", v.SubN, v.SubP, v.Gate)
	}
	fmt.Println()
	fmt.Printf("%-16s %12s %12s %12s %12s\n", "cell", "active", "drowsy", "gated-vss", "rbb")
	for _, c := range []leakage.Cell{leakage.SRAM6T, leakage.DecoderNAND, leakage.SenseAmp, leakage.InverterDriver} {
		fmt.Printf("%-16s %11.3enW %11.3enW %11.3enW %11.3enW\n", c.Name,
			1e9*m.CellPower(c, leakage.ModeActive),
			1e9*m.CellPower(c, leakage.ModeDrowsy),
			1e9*m.CellPower(c, leakage.ModeGated),
			1e9*m.CellPower(c, leakage.ModeRBB))
	}
	fmt.Println()
	fmt.Printf("structure of %d SRAM cells:\n", *cells)
	for _, mode := range []leakage.Mode{leakage.ModeActive, leakage.ModeDrowsy, leakage.ModeGated, leakage.ModeRBB} {
		fmt.Printf("  %-10s %8.2f mW (%.2f%% of active)\n", mode,
			1e3*m.StructurePower(leakage.SRAM6T, *cells, mode),
			100*m.StandbyFraction(leakage.SRAM6T, mode))
	}
}

// runCompare scores drowsy and gated-Vss against the uncontrolled cache on
// one benchmark, on the Table 2 machine with an 11-cycle L2 at the default
// decay interval, under SIGINT handling and an optional deadline. It
// prints nothing on stdout unless every run succeeds. opts build the
// leakage model.
func runCompare(bench string, tempC float64, timeout time.Duration, opts []leakage.Option) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	prof, ok := workload.ByName(bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (have %v)\n", bench, workload.Names())
		return 1
	}
	base, points, err := compare(ctx, sim.DefaultMachine(11), prof, tempC, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s @ %.0f C, L2=11: baseline IPC %.2f\n", prof.Name, tempC, base.CPU.IPC())
	fmt.Printf("%-10s %12s %12s %10s\n", "technique", "net savings", "perf loss", "turnoff")
	for _, p := range points {
		fmt.Printf("%-10s %11.1f%% %11.2f%% %9.1f%%\n",
			p.Technique, p.Cmp.NetSavingsPct, p.Cmp.PerfLossPct, 100*p.Cmp.TurnoffRatio)
	}
	return 0
}

// compare simulates the runs runCompare prints on machine mc, and scores
// drowsy and gated-Vss at the default decay interval and tempC.
func compare(ctx context.Context, mc sim.MachineConfig, prof workload.Profile, tempC float64, opts []leakage.Option) (sim.RunResult, []sim.Point, error) {
	suite := sim.NewSuite(mc)
	model := leakage.New(mc.Tech, opts...)
	base, err := suite.Baseline(ctx, prof)
	if err != nil {
		return sim.RunResult{}, nil, err
	}
	var points []sim.Point
	for _, tq := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
		p, err := suite.Evaluate(ctx, prof, leakctl.DefaultParams(tq, sim.DefaultInterval), tempC, model, nil)
		if err != nil {
			return sim.RunResult{}, nil, err
		}
		points = append(points, p)
	}
	return base, points, nil
}
