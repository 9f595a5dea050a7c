package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// downRunner is a RemoteRunner for a daemon that is simply gone: every
// batch fails at the transport level.
type downRunner struct {
	calls atomic.Int64
}

var errDaemonDown = errors.New("dial tcp: connection refused")

func (d *downRunner) RunCells(_ context.Context, _, _ uint64, _ []CellSpec) ([]RemoteCell, error) {
	d.calls.Add(1)
	return nil, errDaemonDown
}

func (d *downRunner) RunAttackCells(context.Context, []AttackSpec) ([]RemoteOutcome[AttackSpec, attack.Result], error) {
	d.calls.Add(1)
	return nil, errDaemonDown
}

// flakyRunner fails its first batch, then serves the rest by simulating
// locally through a second Experiments (standing in for a healthy daemon).
type flakyRunner struct {
	inner *Experiments
	fails atomic.Int64
}

func (f *flakyRunner) RunCells(_ context.Context, _, _ uint64, specs []CellSpec) ([]RemoteCell, error) {
	if f.fails.Add(1) == 1 {
		return nil, errDaemonDown
	}
	outs, err := f.inner.RunCells(specs)
	if err != nil {
		return nil, err
	}
	cells := make([]RemoteCell, len(outs))
	for i, o := range outs {
		cells[i] = RemoteCell{Spec: o.Spec, Result: o.Result}
		if o.Err != nil {
			cells[i].Err = o.Err.Error()
		}
	}
	return cells, nil
}

func (f *flakyRunner) RunAttackCells(_ context.Context, specs []AttackSpec) ([]RemoteOutcome[AttackSpec, attack.Result], error) {
	if f.fails.Add(1) == 1 {
		return nil, errDaemonDown
	}
	outs, err := f.inner.RunAttackCells(specs)
	if err != nil {
		return nil, err
	}
	cells := make([]RemoteOutcome[AttackSpec, attack.Result], len(outs))
	for i, o := range outs {
		cells[i] = RemoteOutcome[AttackSpec, attack.Result]{Spec: o.Spec, Result: o.Result}
		if o.Err != nil {
			cells[i].Err = o.Err.Error()
		}
	}
	return cells, nil
}

// remoteExperiments builds a small remote-delegating experiment set.
func remoteExperiments(t *testing.T, r RemoteRunner) *Experiments {
	t.Helper()
	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 20_000
	e.Profiles = workload.Profiles()[:1]
	e.Workers = 1
	e.Remote = r
	return e
}

// TestRemoteFallbackDegradesToLocal: with RemoteFallback, a batch against
// a dead daemon is executed locally instead of failing, and the results
// match a never-remote run bit for bit.
func TestRemoteFallbackDegradesToLocal(t *testing.T) {
	cells := []CellSpec{
		{Bench: "gzip", L2: 11, Technique: leakctl.TechNone, Interval: 0},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096},
	}

	down := &downRunner{}
	e := remoteExperiments(t, down)
	e.RemoteFallback = true
	outs, err := e.RunCells(cells)
	if err != nil {
		t.Fatalf("fallback run failed outright: %v", err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %s failed despite local fallback: %v", o.Key, o.Err)
		}
	}
	if down.calls.Load() == 0 {
		t.Fatal("remote was never attempted")
	}
	if e.Remoted() != 0 || e.Executed() != len(cells) {
		t.Errorf("remoted=%d executed=%d, want 0/%d (all local)", e.Remoted(), e.Executed(), len(cells))
	}

	// Bit-identical to a purely local run.
	local := remoteExperiments(t, nil)
	local.Remote = nil
	want, err := local.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if fmt.Sprintf("%+v", outs[i].Result) != fmt.Sprintf("%+v", want[i].Result) {
			t.Errorf("cell %s: degraded result diverges from local run", outs[i].Key)
		}
	}
}

// TestRemoteNoFallbackFailsBatch pins the old contract when the knob is
// off: a transport failure is a batch error.
func TestRemoteNoFallbackFailsBatch(t *testing.T) {
	e := remoteExperiments(t, &downRunner{})
	if _, err := e.RunCells([]CellSpec{{Bench: "gzip", L2: 11, Technique: leakctl.TechNone}}); err == nil {
		t.Fatal("dead daemon without RemoteFallback reported success")
	} else if !errors.Is(err, errDaemonDown) {
		t.Errorf("batch error %v does not wrap the transport error", err)
	}
}

// TestRemoteFallbackRecovers: only the failed batch degrades; the next
// batch goes remote again once the daemon answers.
func TestRemoteFallbackRecovers(t *testing.T) {
	inner := remoteExperiments(t, nil)
	inner.Remote = nil
	fr := &flakyRunner{inner: inner}
	e := remoteExperiments(t, fr)
	e.RemoteFallback = true

	// Batch 1: remote fails once, degrades to local.
	if _, err := e.RunCells([]CellSpec{{Bench: "gzip", L2: 11, Technique: leakctl.TechNone}}); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 1 || e.Remoted() != 0 {
		t.Fatalf("batch 1: executed=%d remoted=%d, want 1/0", e.Executed(), e.Remoted())
	}
	// Batch 2: daemon recovered; the new cell is delegated.
	if _, err := e.RunCells([]CellSpec{{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096}}); err != nil {
		t.Fatal(err)
	}
	if e.Remoted() != 1 {
		t.Errorf("batch 2: remoted=%d, want 1 (daemon recovered)", e.Remoted())
	}
}

// corruptRunner serves cells through a second Experiments, like
// flakyRunner's healthy daemon, but answers one energy cell with a
// zero-cycle result and one attack cell with an empty one.
type corruptRunner struct {
	inner        *Experiments
	cell, attack string // the run keys answered with corrupt results
}

func (c *corruptRunner) RunCells(_ context.Context, _, _ uint64, specs []CellSpec) ([]RemoteCell, error) {
	outs, err := c.inner.RunCells(specs)
	if err != nil {
		return nil, err
	}
	cells := make([]RemoteCell, len(outs))
	for i, o := range outs {
		cells[i] = RemoteCell{Spec: o.Spec, Result: o.Result}
		if o.Key == c.cell {
			cells[i].Result = RunResult{Bench: o.Spec.Bench}
		}
	}
	return cells, nil
}

func (c *corruptRunner) RunAttackCells(_ context.Context, specs []AttackSpec) ([]RemoteOutcome[AttackSpec, attack.Result], error) {
	outs, err := c.inner.RunAttackCells(specs)
	if err != nil {
		return nil, err
	}
	cells := make([]RemoteOutcome[AttackSpec, attack.Result], len(outs))
	for i, o := range outs {
		cells[i] = RemoteOutcome[AttackSpec, attack.Result]{Spec: o.Spec, Result: o.Result}
		if o.Key == c.attack {
			cells[i].Result = attack.Result{}
		}
	}
	return cells, nil
}

// TestRemoteResultsAreChecked: a remote daemon's results pass the same
// check as a stored or simulated one before they are memoized. A
// zero-cycle energy result and an empty attack result each fail their own
// cell, while their batch-mates settle as remote results.
func TestRemoteResultsAreChecked(t *testing.T) {
	inner := remoteExperiments(t, nil)
	inner.Remote = nil
	cells := []CellSpec{
		{Bench: "gzip", L2: 11, Technique: leakctl.TechNone, Interval: 0},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096},
	}
	attacks := []AttackSpec{
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechNone, Interval: 0},
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048},
	}
	e := remoteExperiments(t, &corruptRunner{inner: inner, cell: cells[1].Key(), attack: attacks[1].Key()})

	outs, err := e.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Errorf("energy batch-mate failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "zero-cycle") {
		t.Errorf("zero-cycle remote result was accepted: err %v", outs[1].Err)
	}
	aouts, err := e.RunAttackCells(attacks)
	if err != nil {
		t.Fatal(err)
	}
	if aouts[0].Err != nil {
		t.Errorf("attack batch-mate failed: %v", aouts[0].Err)
	}
	if aouts[1].Err == nil || !strings.Contains(aouts[1].Err.Error(), "empty attack result") {
		t.Errorf("empty remote attack result was accepted: err %v", aouts[1].Err)
	}
	if e.Remoted() != 2 || e.Executed() != 0 {
		t.Errorf("remoted=%d executed=%d, want 2/0", e.Remoted(), e.Executed())
	}
}
