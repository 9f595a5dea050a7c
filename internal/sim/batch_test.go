package sim

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hotleakage/internal/cpu"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// batchSpecs builds one group's lane specs: the baseline plus both
// techniques across a spread of decay intervals — the shape a real figure
// sweep hands the batch planner.
func batchSpecs(prof workload.Profile, l2 int, intervals []uint64) []runSpec {
	specs := []runSpec{{prof, l2, leakctl.TechNone, 0}}
	for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
		for _, iv := range intervals {
			specs = append(specs, runSpec{prof, l2, tech, iv})
		}
	}
	return specs
}

// TestBatchScalarParityAllProfiles is the bit-identity contract behind the
// lockstep batch executor: for every benchmark, a group carrying the
// baseline plus drowsy/gated-Vss across a spread of decay intervals must
// produce, lane for lane, exactly the RunResult the scalar path produces —
// stats, energies, predictor counters, turnoff ratios, everything. The
// BatchState is reused dirty across benchmarks, so cross-group recycling
// is under the same contract.
func TestBatchScalarParityAllProfiles(t *testing.T) {
	mc := parityMachine(11)
	ctx := context.Background()
	bs := new(BatchState)
	for _, prof := range workload.Profiles() {
		specs := batchSpecs(prof, 11, []uint64{1024, 4096, 65536})
		lanes := make([]*batchLane, len(specs))
		for i, sp := range specs {
			lanes[i] = &batchLane{sp: sp}
		}
		runBatchGroup(ctx, mc, prof, lanes, nil, bs)
		for _, ln := range lanes {
			if ln.err != nil {
				t.Fatalf("%s lane %s: %v", prof.Name, ln.sp.key(), ln.err)
			}
			params := leakctl.DefaultParams(ln.sp.tech, ln.sp.interval)
			want, err := RunOne(ctx, mc, prof, params, nil)
			if err != nil {
				t.Fatalf("%s scalar %s: %v", prof.Name, ln.sp.key(), err)
			}
			if !reflect.DeepEqual(want, ln.res) {
				t.Fatalf("%s/%s iv=%d: batch lane diverged from scalar\nscalar %+v\nbatch  %+v",
					prof.Name, ln.sp.tech, ln.sp.interval, want, ln.res)
			}
		}
	}
}

// TestBatchParityLiveFront covers a fresh BatchState on another machine
// (L2 latency 5): the front filled live from the generator must still
// match scalar execution exactly.
func TestBatchParityLiveFront(t *testing.T) {
	mc := parityMachine(5)
	ctx := context.Background()
	prof, _ := workload.ByName("gcc")
	specs := batchSpecs(prof, 5, []uint64{4096})
	lanes := make([]*batchLane, len(specs))
	for i, sp := range specs {
		lanes[i] = &batchLane{sp: sp}
	}
	runBatchGroup(ctx, mc, prof, lanes, nil, new(BatchState))
	for _, ln := range lanes {
		if ln.err != nil {
			t.Fatalf("lane %s: %v", ln.sp.key(), ln.err)
		}
		want, err := RunOne(ctx, mc, prof, leakctl.DefaultParams(ln.sp.tech, ln.sp.interval), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, ln.res) {
			t.Fatalf("%s: live-front batch lane diverged from scalar", ln.sp.key())
		}
	}
}

// TestBatchFrontWindowBounded pins the front's memory to one lockstep
// round, not the run: a group over 30K warm-up + 400K measured
// instructions (nine rounds) must end holding at most a chunk plus twice
// the slack in records, where a whole-run front holds 434,096, and every
// lane must still match scalar execution exactly.
func TestBatchFrontWindowBounded(t *testing.T) {
	mc := DefaultMachine(11)
	mc.Warmup = 30_000
	mc.Instructions = 400_000
	ctx := context.Background()
	prof, _ := workload.ByName("gzip")
	specs := batchSpecs(prof, 11, []uint64{4096})
	lanes := make([]*batchLane, len(specs))
	for i, sp := range specs {
		lanes[i] = &batchLane{sp: sp}
	}
	bs := new(BatchState)
	runBatchGroup(ctx, mc, prof, lanes, nil, bs)
	got, bound := bs.front.Resident(), runChunk+2*frontSlack
	t.Logf("front holds %d records", got)
	if got > bound {
		t.Errorf("front holds %d records after the group, want at most %d", got, bound)
	}
	for _, ln := range lanes {
		if ln.err != nil {
			t.Fatalf("lane %s: %v", ln.sp.key(), ln.err)
		}
		want, err := RunOne(ctx, mc, prof, leakctl.DefaultParams(ln.sp.tech, ln.sp.interval), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, ln.res) {
			t.Fatalf("%s: windowed batch lane diverged from scalar", ln.sp.key())
		}
	}
}

// TestLaneFootprint pins what one lane of a group costs, so a later change
// cannot silently regrow it: a Table 2 machine — mostly the L2's 32,768
// lines at five bytes each — builds in at most 230 KB, and a front record
// is 32 bytes. The least of three builds is taken, since allocation by
// anything else running only adds to the count.
func TestLaneFootprint(t *testing.T) {
	if got := unsafe.Sizeof(cpu.FrontRec{}); got != 32 {
		t.Errorf("cpu.FrontRec is %d bytes, want 32", got)
	}
	mc := DefaultMachine(11)
	params := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := buildMachine(mc, params, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a Table 2 lane's machine allocates %d B", least)
	if least > 230_000 {
		t.Errorf("a Table 2 lane's machine allocates %d B, want at most 230,000", least)
	}
}

// TestRunStateReusesAcrossL2Latency: the L2's hit latency sizes nothing,
// so a RunState that ran a cell at L2 = 5 keeps its machine, line stores
// included, for the same cell at L2 = 17, and that second run equals a
// fresh build bit for bit.
func TestRunStateReusesAcrossL2Latency(t *testing.T) {
	ctx := context.Background()
	prof, _ := workload.ByName("gcc")
	params := leakctl.DefaultParams(leakctl.TechDrowsy, 4096)
	st := new(RunState)
	first, err := runOneFromState(ctx, parityMachine(5), prof.Name, workload.NewGenerator(prof), params, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	built := st.m
	mc := parityMachine(17)
	got, err := runOneFromState(ctx, mc, prof.Name, workload.NewGenerator(prof), params, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if st.m.l2 != built.l2 || st.m.dl1 != built.dl1 || st.m.il1Plain != built.il1Plain {
		t.Fatal("an L2-latency change rebuilt the lane's caches")
	}
	want, err := RunOne(ctx, mc, prof, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("a machine reused across an L2-latency change diverged from a fresh build")
	}
	if reflect.DeepEqual(first.CPU, got.CPU) {
		t.Fatal("the L2 latency changed no counter; the test shows nothing")
	}
}

// TestBatchLaneScalarReuseParity is the PR's reset-path regression test: a
// RunState whose machine just ran as a replay lane (front attached, BP
// accumulated) must, when reused by the scalar path, produce results
// bit-identical to a fresh build — cpu.Recycle has to detach the front
// and reset the replay fields along with everything else.
func TestBatchLaneScalarReuseParity(t *testing.T) {
	mc := parityMachine(11)
	ctx := context.Background()
	prof, _ := workload.ByName("mcf")
	bs := new(BatchState)
	lanes := []*batchLane{
		{sp: runSpec{prof, 11, leakctl.TechDrowsy, 1024}},
		{sp: runSpec{prof, 11, leakctl.TechGated, 65536}},
	}
	runBatchGroup(ctx, mc, prof, lanes, nil, bs)
	for _, ln := range lanes {
		if ln.err != nil {
			t.Fatalf("batch lane %s: %v", ln.sp.key(), ln.err)
		}
	}
	// Reuse the dirty lane states on the scalar path, against a different
	// benchmark and technique than the lane last ran.
	prof2, _ := workload.ByName("gzip")
	params := leakctl.DefaultParams(leakctl.TechGated, 4096)
	fresh, err := RunOne(ctx, mc, prof2, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range bs.lanes[:len(lanes)] {
		reused, err := runOneFromState(ctx, mc, prof2.Name, workload.NewGenerator(prof2), params, nil, st)
		if err != nil {
			t.Fatalf("lane %d reuse: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("lane %d: scalar run on a recycled replay lane diverged from fresh build", i)
		}
	}
}

// TestBatchStateReuseBitIdentity runs the same group on a BatchState
// dirtied by a different benchmark's group and on a fresh one; both must
// match scalar results exactly (the dirty path is also what
// TestBatchScalarParityAllProfiles exercises — this pins the fresh-vs-
// dirty equivalence directly).
func TestBatchStateReuseBitIdentity(t *testing.T) {
	mc := parityMachine(11)
	ctx := context.Background()
	profA, _ := workload.ByName("gcc")
	profB, _ := workload.ByName("parser")
	run := func(bs *BatchState, prof workload.Profile) []*batchLane {
		specs := batchSpecs(prof, 11, []uint64{2048, 8192})
		lanes := make([]*batchLane, len(specs))
		for i, sp := range specs {
			lanes[i] = &batchLane{sp: sp}
		}
		runBatchGroup(ctx, mc, prof, lanes, nil, bs)
		return lanes
	}
	dirty := new(BatchState)
	run(dirty, profA) // dirty the front, predictor and lane states
	got := run(dirty, profB)
	want := run(new(BatchState), profB)
	for i := range want {
		if want[i].err != nil || got[i].err != nil {
			t.Fatalf("lane %d errs: fresh=%v dirty=%v", i, want[i].err, got[i].err)
		}
		if !reflect.DeepEqual(want[i].res, got[i].res) {
			t.Fatalf("lane %s: dirty BatchState diverged from fresh", want[i].sp.key())
		}
	}
}

// TestExperimentsFiguresIdenticalWithBatchOff is the end-to-end knob
// check: a figure produced through the batch phase must equal the same
// figure produced entirely on the scalar path.
func TestExperimentsFiguresIdenticalWithBatchOff(t *testing.T) {
	build := func(disable bool) (Figure, Figure, int) {
		e := NewExperiments()
		e.Instructions = 60_000
		e.Warmup = 30_000
		e.Profiles = e.Profiles[:3]
		e.DisableBatch = disable
		defer e.Close()
		sav, perf := e.LatencyFigure("S", "P", 11, 110, 4096)
		return sav, perf, e.BatchLanes()
	}
	savOn, perfOn, lanesOn := build(false)
	savOff, perfOff, lanesOff := build(true)
	if !reflect.DeepEqual(savOn, savOff) || !reflect.DeepEqual(perfOn, perfOff) {
		t.Fatalf("figures differ with batch off:\non  %v\noff %v", savOn, savOff)
	}
	if lanesOn == 0 {
		t.Fatal("batch phase executed no lanes on the default path")
	}
	if lanesOff != 0 {
		t.Fatalf("DisableBatch still executed %d batch lanes", lanesOff)
	}
}

// TestBatchOccupancyMaximal pins the planner's grouping contract: a mixed
// figure sweep (baseline + two techniques per benchmark, planned in one
// prefetch) must form exactly one full group per benchmark — cost-ordered
// dispatch is at group granularity, so groups are never fragmented across
// workers — and every cell must ride a batch lane, none falling back to
// the scalar path.
func TestBatchOccupancyMaximal(t *testing.T) {
	e := NewExperiments()
	e.Instructions = 40_000
	e.Warmup = 10_000
	e.Profiles = e.Profiles[:3]
	e.Workers = 2 // force multi-worker dispatch over the ordered groups
	defer e.Close()
	if sav, _ := e.LatencyFigure("S", "P", 11, 110, 4096); sav.FailedCells() != 0 {
		t.Fatalf("clean sweep has failed cells:\n%s", sav.String())
	}
	wantLanes := len(e.Profiles) * 3 // none + drowsy + gated per benchmark
	if got := e.BatchLanes(); got != wantLanes {
		t.Fatalf("BatchLanes = %d, want %d (cells fell out of the batch phase)", got, wantLanes)
	}
	if got := e.BatchGroups(); got != len(e.Profiles) {
		t.Fatalf("BatchGroups = %d, want %d (groups fragmented)", got, len(e.Profiles))
	}
	if e.Executed() != wantLanes {
		t.Fatalf("Executed = %d, want %d", e.Executed(), wantLanes)
	}
}

// TestBatchFaultIsolation proves a mid-batch injected panic degrades one
// lane to an ERR cell without poisoning its batch-mates: the victim's
// group keeps running, the sibling cells match a fault-free scalar
// reference bit for bit, and the failure is recorded with the panic
// captured structurally.
func TestBatchFaultIsolation(t *testing.T) {
	reference := func() (Figure, Figure) {
		e := tinyExperiments()
		e.DisableBatch = true
		defer e.Close()
		return e.LatencyFigure("S", "P", 11, 110, 4096)
	}
	refSav, refPerf := reference()

	e := tinyExperiments()
	defer e.Close()
	victim := runKey(e.Profiles[0].Name, 11, leakctl.TechDrowsy, 4096)
	e.Injector = panicKey(victim)
	sav, perf := e.LatencyFigure("S", "P", 11, 110, 4096)

	if e.BatchGroups() == 0 {
		t.Fatal("sweep did not exercise the batch phase")
	}
	if !sav.DrowsyErr[0] || !perf.DrowsyErr[0] {
		t.Fatal("panicked lane not marked ERR")
	}
	if sav.GatedErr[0] || sav.DrowsyErr[1] || sav.GatedErr[1] {
		t.Fatalf("batch-mates poisoned: %+v %+v", sav.DrowsyErr, sav.GatedErr)
	}
	// Every surviving cell is bit-identical to the fault-free scalar
	// reference (the victim's cells are ERR in one figure only).
	for i := range sav.Bench {
		if !sav.DrowsyErr[i] && sav.Drowsy[i] != refSav.Drowsy[i] {
			t.Fatalf("drowsy[%d] diverged: %v vs %v", i, sav.Drowsy[i], refSav.Drowsy[i])
		}
		if sav.Gated[i] != refSav.Gated[i] {
			t.Fatalf("gated[%d] diverged: %v vs %v", i, sav.Gated[i], refSav.Gated[i])
		}
		if !perf.DrowsyErr[i] && perf.Drowsy[i] != refPerf.Drowsy[i] {
			t.Fatalf("perf drowsy[%d] diverged", i)
		}
		if perf.Gated[i] != refPerf.Gated[i] {
			t.Fatalf("perf gated[%d] diverged", i)
		}
	}
	fails := e.Failures()
	if len(fails) != 1 || fails[0].Key != victim {
		t.Fatalf("failures = %+v", fails)
	}
	if fails[0].Panic == "" || fails[0].Stack == "" {
		t.Fatalf("panic not captured structurally: %+v", fails[0])
	}
	if !strings.Contains(fails[0].Panic, "faultinject") {
		t.Fatalf("unexpected panic source: %q", fails[0].Panic)
	}
}

// TestBatchDeferredFaultKinds checks that non-panic injected faults on a
// batch lane defer to the scalar supervisor, where the full retry
// semantics apply: a NaN injected only on attempt 0 ends in a clean
// result after one retry.
func TestBatchDeferredFaultKinds(t *testing.T) {
	e := tinyExperiments()
	e.MaxRetries = 1
	defer e.Close()
	victim := runKey(e.Profiles[1].Name, 11, leakctl.TechGated, 4096)
	e.Injector = faultinject.Func(func(k string, attempt int) faultinject.Fault {
		if k == victim && attempt == 0 {
			return faultinject.FaultNaN
		}
		return faultinject.FaultNone
	})
	sav, _ := e.LatencyFigure("S", "P", 11, 110, 4096)
	if sav.FailedCells() != 0 {
		t.Fatalf("deferred NaN fault was not retried clean:\n%s", sav.String())
	}
	if e.BatchGroups() == 0 {
		t.Fatal("sweep did not exercise the batch phase")
	}
}
