package main

import (
	"context"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/sim"
	"hotleakage/internal/workload"
)

// TestCompareTechniquesDefaults: -compare's runs on gcc, shortened, rate
// drowsy and gated-Vss in range, and each shows its own event mix: drowsy
// slow hits and no induced misses, gated-Vss the reverse.
func TestCompareTechniquesDefaults(t *testing.T) {
	mc := sim.DefaultMachine(11)
	mc.Instructions, mc.Warmup = 120_000, 60_000
	prof, _ := workload.ByName("gcc")
	base, points, err := compare(context.Background(), mc, prof, 85, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Bench != "gcc" || base.CPU.IPC() <= 0 {
		t.Fatalf("baseline: bench %q, IPC %v", base.Bench, base.CPU.IPC())
	}
	if len(points) != 2 || points[0].Technique != leakctl.TechDrowsy || points[1].Technique != leakctl.TechGated {
		t.Fatalf("points = %v, want drowsy then gated", points)
	}
	for _, p := range points {
		if p.Cmp.NetSavingsPct < -100 || p.Cmp.NetSavingsPct > 100 {
			t.Errorf("%v savings %v out of range", p.Technique, p.Cmp.NetSavingsPct)
		}
		if p.Cmp.TurnoffRatio <= 0 || p.Cmp.TurnoffRatio >= 1 {
			t.Errorf("%v turnoff %v", p.Technique, p.Cmp.TurnoffRatio)
		}
	}
	// State-preserving vs not, visible in the event mix.
	if d := points[0].Run.DStats; d.SlowHits == 0 || d.InducedMisses != 0 {
		t.Errorf("drowsy events: %d slow hits, %d induced misses", d.SlowHits, d.InducedMisses)
	}
	if g := points[1].Run.DStats; g.InducedMisses == 0 || g.SlowHits != 0 {
		t.Errorf("gated events: %d slow hits, %d induced misses", g.SlowHits, g.InducedMisses)
	}
}

// TestCompareUnknownBenchmark: -compare on a name no profile has fails
// with exit status 1 before simulating anything.
func TestCompareUnknownBenchmark(t *testing.T) {
	if code := runCompare("nonesuch", 85, 0, nil); code != 1 {
		t.Fatalf("runCompare(nonesuch) = %d, want 1", code)
	}
}
