package sim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// tinyExperiments is a two-benchmark experiment set at minimal scale for
// the supervision tests.
func tinyExperiments() *Experiments {
	e := NewExperiments()
	e.Instructions = 40_000
	e.Warmup = 10_000
	e.Profiles = e.Profiles[:2]
	return e
}

// panicKey injects a sticky panic into exactly one run key.
func panicKey(key string) faultinject.Injector {
	return faultinject.Func(func(k string, attempt int) faultinject.Fault {
		if k == key {
			return faultinject.FaultPanic
		}
		return faultinject.FaultNone
	})
}

func TestInjectedPanicKeepsSiblingCells(t *testing.T) {
	e := tinyExperiments()
	victim := runKey(e.Profiles[0].Name, 5, leakctl.TechDrowsy, 4096)
	e.Injector = panicKey(victim)

	sav, perf := e.LatencyFigure("S", "P", 5, 110, 4096)
	if len(sav.Bench) != 2 {
		t.Fatalf("figure lost rows: %v", sav.Bench)
	}
	if !sav.DrowsyErr[0] || !perf.DrowsyErr[0] {
		t.Fatal("panicked cell not marked ERR")
	}
	// Every sibling cell survives: gated on the same benchmark, and both
	// techniques on the other benchmark.
	if sav.GatedErr[0] || sav.DrowsyErr[1] || sav.GatedErr[1] {
		t.Fatalf("sibling cells lost: %+v %+v", sav.DrowsyErr, sav.GatedErr)
	}
	if sav.Gated[0] == 0 || sav.Drowsy[1] == 0 {
		t.Fatal("sibling cells have no values")
	}
	if !strings.Contains(sav.String(), "ERR") || !strings.Contains(sav.CSV(), "ERR") {
		t.Fatalf("ERR cell not rendered:\n%s", sav.String())
	}
	if sav.FailedCells() != 1 {
		t.Fatalf("FailedCells = %d, want 1", sav.FailedCells())
	}

	fails := e.Failures()
	if len(fails) != 1 || fails[0].Key != victim {
		t.Fatalf("failures = %+v", fails)
	}
	if fails[0].Panic == "" || fails[0].Stack == "" {
		t.Fatalf("panic not captured structurally: %+v", fails[0])
	}
	if s := e.FailureSummary(); !strings.Contains(s, victim) {
		t.Fatalf("summary does not name the failed run:\n%s", s)
	}

	// The failed cell is excluded from the average, not zero-counted.
	d, _ := sav.Avg()
	if d != sav.Drowsy[1] {
		t.Fatalf("Avg over failed cells wrong: %v (want %v)", d, sav.Drowsy[1])
	}
}

func TestParallelMatchesSerialFigure(t *testing.T) {
	par := tinyExperiments()
	par.Workers = 0
	ser := tinyExperiments()
	ser.Workers = 1

	ps, pp := par.LatencyFigure("S", "P", 5, 110, 4096)
	ss, sp := ser.LatencyFigure("S", "P", 5, 110, 4096)
	if ps.CSV() != ss.CSV() || pp.CSV() != sp.CSV() {
		t.Fatalf("parallel and serial figures diverge:\n%s\nvs\n%s", ps.CSV(), ss.CSV())
	}
}

// TestCheckpointResumeReproducesCleanFigure: the store is the checkpoint.
// Pass 1 runs over a store with one run panicking; its cell degrades to
// ERR, and the rest are stored as they settle. Pass 2, without the
// injector over the same store, simulates only the failed run.
func TestCheckpointResumeReproducesCleanFigure(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	e1 := tinyExperiments()
	victim := runKey(e1.Profiles[0].Name, 5, leakctl.TechGated, 4096)
	e1.Injector = panicKey(victim)
	e1.Store = st
	sav1, _ := e1.LatencyFigure("S", "P", 5, 110, 4096)
	if sav1.FailedCells() != 1 {
		t.Fatalf("pass 1: FailedCells = %d, want 1", sav1.FailedCells())
	}
	if e1.Executed() != 5 { // 2 baselines + 4 technique runs - 1 failure
		t.Fatalf("pass 1 executed %d runs, want 5", e1.Executed())
	}

	e2 := tinyExperiments()
	e2.Store = st
	sav2, perf2 := e2.LatencyFigure("S", "P", 5, 110, 4096)
	if sav2.FailedCells() != 0 || perf2.FailedCells() != 0 {
		t.Fatalf("pass 2 still failing:\n%s", e2.FailureSummary())
	}
	if e2.Executed() != 1 || e2.StoreHits() != 5 {
		t.Fatalf("pass 2: executed=%d store_hits=%d, want only the failed run executed and 5 served", e2.Executed(), e2.StoreHits())
	}
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}

	// A clean run from scratch must agree bit-for-bit: resuming changes
	// where results come from, never what they are.
	clean := tinyExperiments()
	sav3, perf3 := clean.LatencyFigure("S", "P", 5, 110, 4096)
	if sav2.CSV() != sav3.CSV() || perf2.CSV() != perf3.CSV() {
		t.Fatalf("resumed figure differs from clean run:\n%s\nvs\n%s", sav2.CSV(), sav3.CSV())
	}
	if sav2.String() != sav3.String() {
		t.Fatal("rendered figures differ after resume")
	}
}

func TestSuiteCancellationDegradesNotAborts(t *testing.T) {
	e := tinyExperiments()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before anything runs
	e.Ctx = ctx
	sav, _ := e.LatencyFigure("S", "P", 5, 110, 4096)
	if sav.FailedCells() != 4 {
		t.Fatalf("cancelled suite produced %d failed cells, want all 4", sav.FailedCells())
	}
	for _, f := range e.Failures() {
		if !f.Canceled {
			t.Fatalf("failure not marked Canceled: %+v", f)
		}
	}
}

func TestRunTimeoutMarksCellTimedOut(t *testing.T) {
	e := tinyExperiments()
	e.Instructions = 5_000_000 // long enough that 1ms cannot finish
	e.Warmup = 0
	e.RunTimeout = time.Millisecond
	prof := e.Profiles[0]
	_, err := e.run(prof, 11, leakctl.TechGated, 4096)
	if err == nil {
		t.Fatal("run under 1ms deadline should fail")
	}
	fails := e.Failures()
	if len(fails) != 1 || !fails[0].Timeout {
		t.Fatalf("failure not marked Timeout: %+v", fails)
	}
}

func TestInvalidConfigFailsPermanently(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	mc := fastMachine(11)
	mc.L1D.Assoc = 0
	if _, err := RunOne(context.Background(), mc, prof, leakctl.DefaultParams(leakctl.TechGated, 4096), nil); err == nil {
		t.Fatal("invalid machine accepted")
	}
	mc = fastMachine(11)
	bad := leakctl.DefaultParams(leakctl.TechGated, 4096)
	bad.Interval = 2 // non-zero but below the decay counter resolution
	if _, err := RunOne(context.Background(), mc, prof, bad, nil); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestNaNInjectionIsRetried(t *testing.T) {
	e := tinyExperiments()
	e.MaxRetries = 1
	// NaN on attempt 0 only: the retry must produce a clean result.
	victim := runKey(e.Profiles[0].Name, 11, leakctl.TechGated, 4096)
	e.Injector = faultinject.Func(func(k string, attempt int) faultinject.Fault {
		if k == victim && attempt == 0 {
			return faultinject.FaultNaN
		}
		return faultinject.FaultNone
	})
	r, err := e.run(e.Profiles[0], 11, leakctl.TechGated, 4096)
	if err != nil {
		t.Fatalf("NaN injection not recovered by retry: %v", err)
	}
	if r.Measurement.DCacheDynJ != r.Measurement.DCacheDynJ { // NaN check
		t.Fatal("accepted result carries NaN energy")
	}
	if len(e.Failures()) != 0 {
		t.Fatalf("unexpected failures: %+v", e.Failures())
	}
}
