package sim

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// slowAdapter keeps its cache's decay interval but takes delay over every
// consultation: a cell whose lane is slow on its own.
type slowAdapter struct{ delay time.Duration }

func (a slowAdapter) Recommend(uint64, leakctl.Stats) uint64 {
	time.Sleep(a.delay)
	return 0
}

func (slowAdapter) Every() uint64 { return 500 }

// TestLaneDeadlineFiresAlone fires one lane's deadline in the middle of
// its group: the slow cell fails as a timeout, and its batch-mates, which
// spend a fraction of the deadline stepping, end exactly as a run without
// a deadline ends. The timed-out lane is the cell's attempt 0, so with no
// retries the cell fails after it: the slow adapter is built once, and
// the deadline is paid once.
func TestLaneDeadlineFiresAlone(t *testing.T) {
	ref := tinyExperiments()
	defer ref.Close()
	ref.LatencyFigure("S", "P", 11, 110, DefaultInterval)

	e := tinyExperiments()
	defer e.Close()
	e.RunTimeout = 100 * time.Millisecond
	e.MaxRetries = 0
	victim := e.Profiles[0]
	var built atomic.Int32
	e.AdapterFor = func(bench string, tq leakctl.Technique, _ uint64) leakctl.Adapter {
		if bench == victim.Name && tq == leakctl.TechDrowsy {
			built.Add(1)
			return slowAdapter{10 * time.Millisecond}
		}
		return nil
	}
	sav, _ := e.LatencyFigure("S", "P", 11, 110, DefaultInterval)
	if e.BatchGroups() == 0 {
		t.Fatal("the sweep ran no lockstep group")
	}
	if !sav.DrowsyErr[0] || sav.FailedCells() != 1 {
		t.Fatalf("want exactly the slow cell failed:\n%s", sav.String())
	}
	fails := e.Failures()
	if len(fails) != 1 || !fails[0].Timeout || fails[0].Attempts != 1 || fails[0].Key != runKey(victim.Name, 11, leakctl.TechDrowsy, DefaultInterval) {
		t.Fatalf("failures = %+v, want one timeout of the slow cell after one attempt", fails)
	}
	if n := built.Load(); n != 1 {
		t.Fatalf("the slow cell built %d adapters, want 1: its timed-out lane is its only attempt", n)
	}
	for _, prof := range e.Profiles {
		for _, tq := range []leakctl.Technique{leakctl.TechNone, leakctl.TechDrowsy, leakctl.TechGated} {
			iv := uint64(DefaultInterval)
			if tq == leakctl.TechNone {
				iv = 0
			}
			if prof.Name == victim.Name && tq == leakctl.TechDrowsy {
				continue
			}
			got, err := e.run(prof, 11, tq, iv)
			if err != nil {
				t.Fatalf("%s/%s: %v", prof.Name, tq, err)
			}
			want, err := ref.run(prof, 11, tq, iv)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: batch-mate of a timed-out lane diverged from a run without a deadline", prof.Name, tq)
			}
		}
	}
}

// TestRunTimeoutKeepsLanes pins that a per-run deadline no one reaches
// changes nothing: the figure equals the one without it, and its cells
// still ride lockstep lanes.
func TestRunTimeoutKeepsLanes(t *testing.T) {
	build := func(timeout time.Duration) (Figure, Figure, int) {
		e := tinyExperiments()
		e.RunTimeout = timeout
		defer e.Close()
		sav, perf := e.LatencyFigure("S", "P", 11, 110, DefaultInterval)
		return sav, perf, e.BatchLanes()
	}
	sav, perf, lanes := build(time.Hour)
	wantSav, wantPerf, _ := build(0)
	if !reflect.DeepEqual(sav, wantSav) || !reflect.DeepEqual(perf, wantPerf) {
		t.Fatalf("figure under a 1h deadline differs:\ngot  %v\nwant %v", sav, wantSav)
	}
	if lanes == 0 {
		t.Fatal("a 1h deadline sent every cell around the lockstep groups")
	}
}

// TestAdapterForRunsLanes pins that adaptive cells batch like any other:
// with AdapterFor set the figure still rides lockstep lanes and equals
// the one-lane-per-group figure.
func TestAdapterForRunsLanes(t *testing.T) {
	build := func(disable bool) (Figure, Figure, int) {
		e := tinyExperiments()
		e.DisableBatch = disable
		e.AdapterFor = func(_ string, tq leakctl.Technique, iv uint64) leakctl.Adapter {
			if tq == leakctl.TechNone {
				return nil
			}
			return aggressiveFeedback(iv)
		}
		defer e.Close()
		sav, perf := e.LatencyFigure("S", "P", 11, 110, DefaultInterval)
		return sav, perf, e.BatchLanes()
	}
	sav, perf, lanes := build(false)
	wantSav, wantPerf, oneLane := build(true)
	if !reflect.DeepEqual(sav, wantSav) || !reflect.DeepEqual(perf, wantPerf) {
		t.Fatalf("adaptive figure differs between shared and one-lane groups:\nshared   %v\none-lane %v", sav, wantSav)
	}
	if lanes == 0 || oneLane != 0 {
		t.Fatalf("BatchLanes = %d shared, %d one-lane; want >0 and 0", lanes, oneLane)
	}
}

// TestBatchParityIL1Control covers a machine whose I-cache is under
// leakage control too: its cells share one group, and every lane matches
// the same cell run on its own.
func TestBatchParityIL1Control(t *testing.T) {
	il1 := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
	mc := parityMachine(11)
	mc.IL1Control = &il1
	ctx := context.Background()
	prof, _ := workload.ByName("gzip")
	specs := batchSpecs(prof, 11, []uint64{1024, DefaultInterval})
	lanes := make([]*batchLane, len(specs))
	for i, sp := range specs {
		lanes[i] = &batchLane{sp: sp}
	}
	runGroup(ctx, mc, prof, lanes, new(BatchState))
	for _, ln := range lanes {
		if ln.err != nil {
			t.Fatalf("lane %s: %v", ln.sp.key(), ln.err)
		}
		want, err := RunOne(ctx, mc, prof, leakctl.DefaultParams(ln.sp.tech, ln.sp.interval), nil)
		if err != nil {
			t.Fatal(err)
		}
		if ln.res.IL1Stats == nil || !reflect.DeepEqual(want, ln.res) {
			t.Fatalf("%s: IL1-controlled lane diverged from its solo run", ln.sp.key())
		}
	}
}
