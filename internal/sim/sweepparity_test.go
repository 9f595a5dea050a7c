package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/trace"
	"hotleakage/internal/workload"
)

// parityMachine is small enough that the full profile × technique product
// stays fast, while still exercising warmup, the decay machinery and the
// memory hierarchy.
func parityMachine(l2 int) MachineConfig {
	mc := DefaultMachine(l2)
	mc.Warmup = 30_000
	mc.Instructions = 60_000
	return mc
}

// TestTraceReplayParityAllProfiles is the bit-identity contract behind
// trace record/replay (tracegen -record/-replay): for every benchmark and
// both control techniques, a run replayed from a recorded trace must
// equal a live generator run in every field of the RunResult — stats,
// energies, turnoff ratios, everything.
func TestTraceReplayParityAllProfiles(t *testing.T) {
	mc := parityMachine(11)
	ctx := context.Background()
	for _, prof := range workload.Profiles() {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, prof.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Record(workload.NewGenerator(prof), w, mc.Warmup+mc.Instructions+frontSlack); err != nil {
			t.Fatalf("%s record: %v", prof.Name, err)
		}
		for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			params := leakctl.DefaultParams(tech, 4096)
			live, err := RunOne(ctx, mc, prof, params, nil)
			if err != nil {
				t.Fatalf("%s/%s live: %v", prof.Name, tech, err)
			}
			r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s reader: %v", prof.Name, err)
			}
			replay, err := RunOneFrom(ctx, mc, prof.Name, r, params, nil)
			if err != nil {
				t.Fatalf("%s/%s replay: %v", prof.Name, tech, err)
			}
			if r.Laps != 0 {
				t.Fatalf("%s/%s: trace wrapped (%d laps); slack too small", prof.Name, tech, r.Laps)
			}
			if !reflect.DeepEqual(live, replay) {
				t.Fatalf("%s/%s: replay diverged from live run\nlive   %+v\nreplay %+v",
					prof.Name, tech, live, replay)
			}
		}
	}
}

// TestRunStateReuseParity drives one RunState through a sequence of
// heterogeneous runs — technique changes, interval changes, benchmark
// changes, an I-cache-controlled machine, an L2 latency change — and
// checks each against a fresh-build run. Reused components must be
// indistinguishable from new ones even when consecutive runs differ in
// every dimension the reset paths touch.
func TestRunStateReuseParity(t *testing.T) {
	il1 := leakctl.DefaultParams(leakctl.TechDrowsy, 4096)
	mcIL1 := parityMachine(11)
	mcIL1.IL1Control = &il1
	cases := []struct {
		name string
		mc   MachineConfig
		prof string
		tech leakctl.Technique
		iv   uint64
	}{
		{"gated-gcc", parityMachine(11), "gcc", leakctl.TechGated, 4096},
		{"drowsy-gcc", parityMachine(11), "gcc", leakctl.TechDrowsy, 4096},
		{"drowsy-mcf-iv16k", parityMachine(11), "mcf", leakctl.TechDrowsy, 16384},
		{"baseline-gzip", parityMachine(11), "gzip", leakctl.TechNone, 0},
		{"il1-controlled", mcIL1, "gcc", leakctl.TechGated, 4096},
		{"l2-latency-5", parityMachine(5), "gcc", leakctl.TechGated, 4096},
	}
	ctx := context.Background()
	st := new(RunState)
	for _, c := range cases {
		prof, ok := workload.ByName(c.prof)
		if !ok {
			t.Fatalf("%s: unknown profile %q", c.name, c.prof)
		}
		params := leakctl.DefaultParams(c.tech, c.iv)
		fresh, err := RunOne(ctx, c.mc, prof, params, nil)
		if err != nil {
			t.Fatalf("%s fresh: %v", c.name, err)
		}
		reused, err := runOneFromState(ctx, c.mc, prof.Name, workload.NewGenerator(prof), params, nil, st)
		if err != nil {
			t.Fatalf("%s reused: %v", c.name, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("%s: state reuse diverged\nfresh  %+v\nreused %+v", c.name, fresh, reused)
		}
	}
}

// TestExperimentsWorkersOverride checks the worker-count resolution rules:
// an explicit Workers wins, Parallel=false defaults to 1.
func TestExperimentsWorkersOverride(t *testing.T) {
	for _, c := range []struct {
		parallel bool
		workers  int
		wantMin  int
		wantMax  int
	}{
		{false, 0, 1, 1},
		{true, 0, 1, 1 << 20}, // GOMAXPROCS: at least one
		{true, 3, 3, 3},
		{false, 5, 5, 5},
	} {
		e := NewExperiments()
		e.Parallel = c.parallel
		e.Workers = c.workers
		got := e.workers()
		if got < c.wantMin || got > c.wantMax {
			t.Fatalf("Parallel=%v Workers=%d resolved to %d workers", c.parallel, c.workers, got)
		}
	}
}
