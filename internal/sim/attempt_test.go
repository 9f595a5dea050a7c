package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// tinyExperiments is a two-benchmark experiment set at minimal scale for
// the attempt-loop tests.
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

// TestNaNInjectionIsRetried: a NaN injected at attempt 0 fails the lane's
// result check, and the retry settles a clean result. The rejected
// attempt never reaches the store: the cell is not stored when its retry
// is announced, and the one record stored is the clean result.
func TestNaNInjectionIsRetried(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := tinyExperiments()
	e.MaxRetries = 1
	e.Store = st
	victim := runKey(e.Profiles[0].Name, 11, leakctl.TechGated, 4096)
	e.Injector = faultinject.Func(func(k string, attempt int) faultinject.Fault {
		if k == victim && attempt == 0 {
			return faultinject.FaultNaN
		}
		return faultinject.FaultNone
	})
	h, err := CellHash(e.machine(11), e.Profiles[0].Name, leakctl.TechGated, 4096)
	if err != nil {
		t.Fatal(err)
	}
	check := &eventCheck{st: st, hashes: map[string]string{victim: h}}
	e.Events = check
	r, err := e.run(e.Profiles[0], 11, leakctl.TechGated, 4096)
	if err != nil {
		t.Fatalf("NaN injection not recovered by retry: %v", err)
	}
	if math.IsNaN(r.Measurement.DCacheDynJ) {
		t.Fatal("accepted result carries NaN energy")
	}
	if len(e.Failures()) != 0 {
		t.Fatalf("unexpected failures: %+v", e.Failures())
	}
	var types []string
	for _, ev := range check.seen {
		types = append(types, ev.typ)
		if ev.typ == "run_retry" && ev.stored {
			t.Fatal("the rejected attempt was stored before its retry")
		}
	}
	if want := []string{"run_start", "run_fault", "run_retry", "run_done"}; fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", types, want)
	}
	rec, ok, err := st.Get(h)
	if err != nil || !ok {
		t.Fatalf("retried cell not stored: ok=%v err=%v", ok, err)
	}
	var stored RunResult
	if err := json.Unmarshal(rec.Value, &stored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, r) {
		t.Fatal("the stored record is not the accepted result")
	}
}

// eventLog records every trace event it receives.
type eventLog struct {
	mu   sync.Mutex
	recs []obs.Record
}

func (l *eventLog) Write(rec obs.Record) {
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

// of returns the events of one run key, in order, as "type/attempt".
func (l *eventLog) of(key string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, r := range l.recs {
		if r.RunID == key {
			out = append(out, fmt.Sprintf("%s/%d", r.Type, r.Attempt))
		}
	}
	return out
}

// panicAdapter panics at its first consultation: a cell whose every run
// fails the same way.
type panicAdapter struct{}

func (panicAdapter) Recommend(uint64, leakctl.Stats) uint64 { panic("adapter fault") }

func (panicAdapter) Every() uint64 { return 500 }

// TestPanickingCellRunsMaxRetriesPlusOneTimes: a cell whose lane panics on
// every run builds its adapter once per attempt, MaxRetries+1 times, and
// its failure record reports that many attempts. Its batch-mates settle.
func TestPanickingCellRunsMaxRetriesPlusOneTimes(t *testing.T) {
	for _, retries := range []int{0, 1, 2} {
		e := tinyExperiments()
		e.MaxRetries = retries
		victim := e.Profiles[0].Name
		var built atomic.Int32
		e.AdapterFor = func(bench string, tq leakctl.Technique, _ uint64) leakctl.Adapter {
			if bench == victim && tq == leakctl.TechDrowsy {
				built.Add(1)
				return panicAdapter{}
			}
			return nil
		}
		sav, _ := e.LatencyFigure("S", "P", 11, 110, DefaultInterval)
		if n := int(built.Load()); n != retries+1 {
			t.Errorf("MaxRetries %d: the panicking cell built %d adapters, want %d", retries, n, retries+1)
		}
		fails := e.Failures()
		if len(fails) != 1 || fails[0].Attempts != retries+1 || fails[0].Panic != "adapter fault" {
			t.Errorf("MaxRetries %d: failures %+v, want one panic after %d attempt(s)", retries, fails, retries+1)
		}
		if sav.FailedCells() != 1 {
			t.Errorf("MaxRetries %d: %d failed cells, want 1:\n%s", retries, sav.FailedCells(), sav.String())
		}
	}
}

// TestInjectedPanicDecidedOncePerAttempt: the injector is asked once per
// cell and attempt. A panic scheduled for attempt 0 only fires once, in
// the cell's lane, and the cell's events tell exactly that story.
func TestInjectedPanicDecidedOncePerAttempt(t *testing.T) {
	e := tinyExperiments()
	e.MaxRetries = 1
	victim := runKey(e.Profiles[0].Name, 11, leakctl.TechDrowsy, DefaultInterval)
	var fired atomic.Int32
	e.Injector = faultinject.Func(func(k string, attempt int) faultinject.Fault {
		if k == victim && attempt == 0 {
			fired.Add(1)
			return faultinject.FaultPanic
		}
		return faultinject.FaultNone
	})
	log := &eventLog{}
	e.Events = log
	if sav, _ := e.LatencyFigure("S", "P", 11, 110, DefaultInterval); sav.FailedCells() != 0 {
		t.Fatalf("a panic at attempt 0 was not healed by the retry:\n%s", e.FailureSummary())
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("the injector returned the panic %d times, want 1", n)
	}
	want := []string{"run_start/0", "run_fault/1", "run_retry/1", "run_done/2"}
	if got := log.of(victim); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("victim events %v, want %v", got, want)
	}
}

// TestInjectedErrorRetries: an error injected at attempts 0 and 1 heals
// at attempt 3 with MaxRetries 2; a sticky one fails after 3 attempts.
func TestInjectedErrorRetries(t *testing.T) {
	for _, sticky := range []bool{false, true} {
		e := tinyExperiments()
		e.MaxRetries = 2
		prof := e.Profiles[1]
		victim := runKey(prof.Name, 5, leakctl.TechGated, 4096)
		e.Injector = faultinject.Func(func(k string, attempt int) faultinject.Fault {
			if k == victim && (sticky || attempt < 2) {
				return faultinject.FaultError
			}
			return faultinject.FaultNone
		})
		log := &eventLog{}
		e.Events = log
		_, err := e.run(prof, 5, leakctl.TechGated, 4096)
		got := log.of(victim)
		if !sticky {
			want := []string{"run_start/0", "run_fault/1", "run_retry/1", "run_fault/2", "run_retry/2", "run_done/3"}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("transient error: err %v, events %v; want success with %v", err, got, want)
			}
			continue
		}
		var re *harness.RunError
		if !errors.As(err, &re) || re.Attempts != 3 || !strings.Contains(re.Err, "faultinject") {
			t.Errorf("sticky error: err %v, want a RunError after 3 attempts", err)
		}
		if n := len(got); n == 0 || got[n-1] != "run_error/3" {
			t.Errorf("sticky error: events %v, want them to end in run_error/3", got)
		}
	}
}

// TestInjectedStallTimesOut: a stalled attempt fails as a timeout, under a
// deadline it would never reach and with none set at all.
func TestInjectedStallTimesOut(t *testing.T) {
	for _, timeout := range []time.Duration{time.Hour, 0} {
		e := tinyExperiments()
		e.RunTimeout = timeout
		e.Injector = faultinject.Func(func(string, int) faultinject.Fault { return faultinject.FaultStall })
		_, err := e.run(e.Profiles[0], 11, leakctl.TechGated, 4096)
		var re *harness.RunError
		if !errors.As(err, &re) || !re.Timeout || re.Attempts != 1 {
			t.Errorf("RunTimeout %v: err %v, want a timeout after 1 attempt", timeout, err)
		}
	}
}

// TestInjectedAttackPanicKeepsSiblingPoints: a panic injected into one
// attack cell of a frontier marks that point's attack half ERR and no
// other; its failure record carries the panic and its stack, and every
// other point equals the fault-free frontier.
func TestInjectedAttackPanicKeepsSiblingPoints(t *testing.T) {
	ref := attackExperiments()
	want, err := ref.FrontierFigure("smoke", 11, 110, []uint64{2048})
	if err != nil {
		t.Fatal(err)
	}
	e := attackExperiments()
	e.MaxRetries = 1
	victim := AttackSpec{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048}
	e.Injector = panicKey(victim.Key())
	got, err := e.FrontierFigure("smoke", 11, 110, []uint64{2048})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.Points {
		if p.Technique == victim.Technique.String() {
			if !p.AttackErr || p.SavingsErr {
				t.Errorf("victim point %+v, want only its attack half failed", p)
			}
			continue
		}
		if !reflect.DeepEqual(p, want.Points[i]) {
			t.Errorf("sibling point %d diverged:\ngot  %+v\nwant %+v", i, p, want.Points[i])
		}
	}
	outs, err := e.RunAttackCells([]AttackSpec{victim})
	if err != nil {
		t.Fatal(err)
	}
	re := outs[0].Err
	if re == nil || re.Panic == "" || re.Stack == "" || re.Attempts != 2 || !strings.Contains(re.Error(), "panic") {
		t.Fatalf("victim record %+v, want a panic with its stack after 2 attempts", re)
	}
}

// TestFailedAttackCellIsReported: a failed attack cell is a failure of
// the suite like a failed energy cell. Failures lists both, sorted by key
// (the attack cell under its attack/ key), and FailureSummary names both,
// so a command that prints it exits non-zero.
func TestFailedAttackCellIsReported(t *testing.T) {
	e := attackExperiments()
	e.MaxRetries = 0
	victim := AttackSpec{Scenario: "smoke", L2: 11, Technique: leakctl.TechGated, Interval: 2048}
	energyVictim := CellSpec{Bench: "gzip", L2: 11, Technique: leakctl.TechGated, Interval: 2048}
	e.Injector = faultinject.Func(func(k string, attempt int) faultinject.Fault {
		switch k {
		case victim.Key():
			return faultinject.FaultPanic
		case energyVictim.Key():
			return faultinject.FaultError
		}
		return faultinject.FaultNone
	})
	outs, err := e.RunAttackCells([]AttackSpec{victim, {Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || outs[1].Err != nil {
		t.Fatalf("attack outcomes: victim err %v, batch-mate err %v", outs[0].Err, outs[1].Err)
	}
	if _, err := e.RunCells([]CellSpec{energyVictim}); err != nil {
		t.Fatal(err)
	}
	fails := e.Failures()
	if len(fails) != 2 || fails[0].Key != victim.Key() || fails[1].Key != energyVictim.Key() {
		t.Fatalf("failures %+v, want %s then %s", fails, victim.Key(), energyVictim.Key())
	}
	if !strings.HasPrefix(fails[0].Key, "attack/") || fails[0].Panic == "" || fails[0].Attempts != 1 {
		t.Errorf("attack failure record %+v, want a panic after 1 attempt under an attack/ key", fails[0])
	}
	s := e.FailureSummary()
	if !strings.Contains(s, "2 run(s) failed") || !strings.Contains(s, victim.Key()) || !strings.Contains(s, energyVictim.Key()) {
		t.Errorf("summary does not name both failed cells:\n%s", s)
	}
}

// TestBackoffIsCappedExponential: retries wait 100 ms, doubling per failed
// attempt, capped at 2 s.
func TestBackoffIsCappedExponential(t *testing.T) {
	want := []time.Duration{100, 200, 400, 800, 1600, 2000, 2000}
	for n, w := range want {
		if got := backoff(n); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", n, got, w*time.Millisecond)
		}
	}
}
