package harness_test

// These tests pin the failure records and trace events of package harness
// as their one producer, package sim's attempt loop, fills them in: a
// result the check rejects is retried, a permanent failure is not, each
// attempt gets its own deadline, suite cancellation drains every cell as
// Canceled, and a rejected attempt never reaches the store.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
)

// experiments is a two-benchmark experiment set at minimal scale.
func experiments() *sim.Experiments {
	e := sim.NewExperiments()
	e.Instructions = 40_000
	e.Warmup = 10_000
	e.Profiles = e.Profiles[:2]
	return e
}

// smoke is the attack cell these tests run: the cheapest scenario.
var smoke = sim.AttackSpec{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096}

// decisions is an Injector that counts how often it is asked about each
// run key — once per attempt the loop makes at the cell — and injects
// fault into the first attempt at the keys in victims.
type decisions struct {
	mu      sync.Mutex
	asked   map[string]int
	fault   faultinject.Fault
	victims map[string]bool
}

func inject(fault faultinject.Fault, victims ...string) *decisions {
	d := &decisions{asked: make(map[string]int), fault: fault, victims: make(map[string]bool)}
	for _, v := range victims {
		d.victims[v] = true
	}
	return d
}

func (d *decisions) Decide(key string, attempt int) faultinject.Fault {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.asked[key]++
	if d.victims[key] && attempt == 0 {
		return d.fault
	}
	return faultinject.FaultNone
}

func (d *decisions) attempts(key string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.asked[key]
}

// eventLog records the trace events it receives; onEvent, when set, sees
// each one first.
type eventLog struct {
	mu      sync.Mutex
	recs    []obs.Record
	onEvent func(obs.Record)
}

var _ harness.EventSink = (*eventLog)(nil)

func (l *eventLog) Write(rec obs.Record) {
	if l.onEvent != nil {
		l.onEvent(rec)
	}
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

// of returns the event types of one run key, in order.
func (l *eventLog) of(key string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, r := range l.recs {
		if r.RunID == key {
			out = append(out, r.Type)
		}
	}
	return out
}

// TestCheckRejectsBadValues: a NaN injected into the first attempt at a
// cell of either kind fails its result check, and the retry — the second
// and last attempt — settles a finite result.
func TestCheckRejectsBadValues(t *testing.T) {
	e := experiments()
	e.MaxRetries = 1
	cell := sim.CellSpec{Bench: e.Profiles[0].Name, L2: 11, Technique: leakctl.TechGated, Interval: 4096}
	inj := inject(faultinject.FaultNaN, cell.Key(), smoke.Key())
	e.Injector = inj
	var log eventLog
	e.Events = &log

	outs, err := e.RunCells([]sim.CellSpec{cell})
	if err != nil {
		t.Fatal(err)
	}
	aouts, err := e.RunAttackCells([]sim.AttackSpec{smoke})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || math.IsNaN(outs[0].Result.Measurement.DCacheDynJ) {
		t.Fatalf("energy cell: check did not force a clean retry: %+v", outs[0].Err)
	}
	if aouts[0].Err != nil || math.IsNaN(aouts[0].Result.CapacityBits) {
		t.Fatalf("attack cell: check did not force a clean retry: %+v", aouts[0].Err)
	}
	for _, key := range []string{cell.Key(), smoke.Key()} {
		if n := inj.attempts(key); n != 2 {
			t.Errorf("%s: %d attempts, want 2", key, n)
		}
		want := []string{"run_start", "run_fault", "run_retry", "run_done"}
		if got := log.of(key); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: events %v, want %v", key, got, want)
		}
	}
}

// TestPermanentFailureSkipsRetry: a cell whose configuration cannot be
// built fails on its one attempt, with retries to spare: no retry event,
// and the Injector is asked about it once.
func TestPermanentFailureSkipsRetry(t *testing.T) {
	e := experiments()
	e.MaxRetries = 5
	inj := inject(faultinject.FaultNone)
	e.Injector = inj
	var log eventLog
	e.Events = &log
	// Decay interval 2 is below the counter resolution for both kinds.
	cell := sim.CellSpec{Bench: e.Profiles[0].Name, L2: 11, Technique: leakctl.TechGated, Interval: 2}
	bad := sim.AttackSpec{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2}

	outs, err := e.RunCells([]sim.CellSpec{cell})
	if err != nil {
		t.Fatal(err)
	}
	aouts, err := e.RunAttackCells([]sim.AttackSpec{bad})
	if err != nil {
		t.Fatal(err)
	}
	for key, re := range map[string]*harness.RunError{cell.Key(): outs[0].Err, bad.Key(): aouts[0].Err} {
		if re == nil || re.Attempts != 1 || re.Timeout || re.Canceled {
			t.Errorf("%s: got %+v, want a plain failure after 1 attempt", key, re)
		}
		if n := inj.attempts(key); n != 1 {
			t.Errorf("%s: permanent failure attempted %d times", key, n)
		}
		want := []string{"run_start", "run_error"}
		if got := log.of(key); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: events %v, want %v", key, got, want)
		}
	}
}

// TestPerRunDeadline: RunTimeout bounds each attempt, not the cell: a cell
// too long for it times out on every attempt, is retried with a fresh
// deadline, and its record says Timeout, not Canceled.
func TestPerRunDeadline(t *testing.T) {
	e := experiments()
	e.Instructions = 5_000_000 // far more than 1ms can step
	e.Warmup = 0
	e.RunTimeout = time.Millisecond
	e.MaxRetries = 1
	cell := sim.CellSpec{Bench: e.Profiles[0].Name, L2: 11, Technique: leakctl.TechGated, Interval: 4096}

	outs, err := e.RunCells([]sim.CellSpec{cell})
	if err != nil {
		t.Fatal(err)
	}
	re := outs[0].Err
	if re == nil || !re.Timeout || re.Canceled || re.Attempts != 2 {
		t.Fatalf("deadline not enforced per attempt: %+v", re)
	}
	if !strings.Contains(re.Error(), "timeout") {
		t.Fatalf("Error() = %q", re.Error())
	}
}

// TestSuiteCancellationDrains: canceling the suite while the first of two
// serial cells is in flight fails that cell as Canceled without a retry;
// the queued cell either finished before the cancellation or is Canceled
// too.
func TestSuiteCancellationDrains(t *testing.T) {
	e := experiments()
	e.Workers = 1
	e.DisableBatch = true
	e.MaxRetries = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Ctx = ctx
	var running string
	var once sync.Once
	e.Events = &eventLog{onEvent: func(rec obs.Record) {
		if rec.Type == "run_start" {
			once.Do(func() {
				running = rec.RunID
				cancel()
			})
		}
	}}
	bench := e.Profiles[0].Name
	cells := []sim.CellSpec{
		{Bench: bench, L2: 11, Technique: leakctl.TechGated, Interval: 4096},
		{Bench: bench, L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096},
	}

	outs, err := e.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if running == "" {
		t.Fatal("no cell started")
	}
	for _, o := range outs {
		if o.Key == running || o.Err != nil {
			if o.Err == nil || !o.Err.Canceled || o.Err.Attempts != 1 {
				t.Fatalf("%s: got %+v, want Canceled after 1 attempt", o.Key, o.Err)
			}
		}
	}
}

// TestSettledSeesOnlyAcceptedValues: the store receives the attack result
// the check accepted, never the one it rejected, and before the cell's
// run_done: the cell is absent from the store at every event up to its
// retry, and present, finite, at run_done.
func TestSettledSeesOnlyAcceptedValues(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc, ok := attack.ByName(smoke.Scenario)
	if !ok {
		t.Fatal("smoke scenario missing")
	}
	hash, err := sim.AttackHash(sim.DefaultMachine(smoke.L2), sc, smoke.Technique, smoke.Interval)
	if err != nil {
		t.Fatal(err)
	}
	stored := func() (attack.Result, bool) {
		rec, ok, err := st.Get(hash)
		if err != nil || !ok {
			return attack.Result{}, false
		}
		var r attack.Result
		if err := json.Unmarshal(rec.Value, &r); err != nil {
			t.Errorf("stored record does not decode: %v", err)
		}
		return r, true
	}

	e := experiments()
	e.MaxRetries = 1
	e.Store = st
	e.Injector = inject(faultinject.FaultNaN, smoke.Key())
	var seen []string
	e.Events = &eventLog{onEvent: func(rec obs.Record) {
		if rec.RunID != smoke.Key() {
			return
		}
		r, ok := stored()
		if ok && math.IsNaN(r.CapacityBits) {
			t.Error("the rejected result was stored")
		}
		seen = append(seen, fmt.Sprintf("%s stored=%v", rec.Type, ok))
	}}

	outs, err := e.RunAttackCells([]sim.AttackSpec{smoke})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[0].Hash != hash {
		t.Fatalf("outcome %+v (hash %s), want the retry settled at %s", outs[0].Err, outs[0].Hash, hash)
	}
	want := []string{"run_start stored=false", "run_fault stored=false", "run_retry stored=false", "run_done stored=true"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", seen, want)
	}
	if r, _ := stored(); !reflect.DeepEqual(r, outs[0].Result) {
		t.Fatal("the stored record is not the accepted result")
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", st.Len())
	}
}
