package sim

// Tests for Suite.Baseline's memo and for Score, the scoring both
// Suite.EvaluateRun and the figures use. Run these under -race (make
// verify does).

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/workload"
)

// holdLock takes the suite's lock as a caller mid-simulation holds it (the
// leader) and returns the function that releases it.
func holdLock(s *Suite) (release func()) {
	s.lock <- struct{}{}
	return func() { <-s.lock }
}

func TestBaselineWaitersShareTheLeaderResult(t *testing.T) {
	s := NewSuite(fastMachine(5))
	prof, _ := workload.ByName("gcc")
	release := holdLock(s)

	const waiters = 8
	results := make(chan RunResult, waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			r, err := s.Baseline(context.Background(), prof)
			results <- r
			errs <- err
		}()
	}

	// Complete the leader with a sentinel result no simulation could
	// produce. If any waiter simulated on its own it would return a real
	// run instead.
	s.baselines[prof.Name] = RunResult{Bench: "sentinel"}
	release()
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("waiter error: %v", err)
		}
		if r := <-results; r.Bench != "sentinel" {
			t.Fatalf("waiter simulated its own baseline (got bench %q)", r.Bench)
		}
	}
}

func TestBaselineWaiterRetriesAfterLeaderFailure(t *testing.T) {
	s := NewSuite(fastMachine(5))
	prof, _ := workload.ByName("gcc")
	release := holdLock(s)

	type out struct {
		r   RunResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := s.Baseline(context.Background(), prof)
		done <- out{r, err}
	}()

	// Fail the leader the way Baseline does: release the lock without
	// keeping a run. The waiter must simulate the baseline itself.
	release()

	o := <-done
	if o.err != nil {
		t.Fatalf("waiter inherited the failed leader's error: %v", o.err)
	}
	if o.r.Bench != prof.Name || o.r.CPU.Cycles == 0 {
		t.Fatalf("retrying waiter produced no real run: %+v", o.r.Bench)
	}
	// The retry's result must now be cached for everyone else.
	again := mustT(s.Baseline(context.Background(), prof))
	if again != o.r {
		t.Fatal("retried baseline not cached")
	}
}

func TestBaselineWaiterCancellation(t *testing.T) {
	s := NewSuite(fastMachine(5))
	prof, _ := workload.ByName("gcc")
	holdLock(s) // never released

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Baseline(ctx, prof)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on a stuck leader")
	}
}

// TestBaselineRetriesAfterFailure: a failed baseline is not memoized. A
// canceled caller gets its context's error, and the next caller simulates
// the run and keeps it.
func TestBaselineRetriesAfterFailure(t *testing.T) {
	s := NewSuite(fastMachine(5))
	prof, _ := workload.ByName("gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Baseline(ctx, prof); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Baseline: err = %v, want context.Canceled", err)
	}
	r := mustT(s.Baseline(context.Background(), prof))
	if r.Bench != prof.Name || r.CPU.Cycles == 0 {
		t.Fatalf("Baseline after a failure produced no real run: %+v", r.Bench)
	}
	if again := mustT(s.Baseline(context.Background(), prof)); again != r {
		t.Fatal("retried baseline not cached")
	}
}

func TestBaselineSingleFlightUnderContention(t *testing.T) {
	// Black-box: many concurrent first callers, one simulation. The obs
	// instruction counter is the witness — a second redundant run would
	// double the delta.
	mc := fastMachine(5)
	s := NewSuite(mc)
	prof, _ := workload.ByName("gcc")
	before := obs.Default.Snapshot().Counters[obs.MetricInstructions]

	const callers = 8
	var wg sync.WaitGroup
	results := make([]RunResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = mustT(s.Baseline(context.Background(), prof))
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different baseline", i)
		}
	}

	after := obs.Default.Snapshot().Counters[obs.MetricInstructions]
	perRun := mc.Warmup + mc.Instructions
	if delta := after - before; delta >= 2*perRun {
		t.Fatalf("instruction delta %d implies %d simulations for one baseline (want 1)",
			delta, delta/perRun)
	}
}

// TestScoreMatchesEvaluateRun: Score over a suite's baseline and a run
// gives the point Suite.EvaluateRun gives for the same run, at two
// temperatures and with the tags decayed or awake.
func TestScoreMatchesEvaluateRun(t *testing.T) {
	ctx := context.Background()
	mc := fastMachine(11)
	s := NewSuite(mc)
	m := leakage.New(mc.Tech)
	prof, _ := workload.ByName("twolf")
	base := mustT(s.Baseline(ctx, prof))
	for _, decayTags := range []bool{true, false} {
		p := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
		p.DecayTags = decayTags
		run := mustT(RunOne(ctx, mc, prof, p, nil))
		for _, tempC := range []float64{85, 110} {
			want := mustT(s.EvaluateRun(ctx, prof, run, tempC, m))
			got := mustT(Score(mc, m, base, run, tempC))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decayTags=%v, %.0f C: Score gave %v, EvaluateRun %v", decayTags, tempC, got, want)
			}
		}
	}
}
