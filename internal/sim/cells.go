package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// CellSpec names one simulation cell by its public coordinates: the
// benchmark, the machine's L2 hit latency (the paper's design-space axis),
// the leakage-control technique and the decay interval. Together with the
// suite's instruction budget it identifies a cell for the daemon API, the
// remote client and the content-addressed result store.
type CellSpec struct {
	Bench     string
	L2        int
	Technique leakctl.Technique
	Interval  uint64
}

// Key returns the cell's run key (the harness job / checkpoint identity).
func (cs CellSpec) Key() string { return runKey(cs.Bench, cs.L2, cs.Technique, cs.Interval) }

func (cs CellSpec) labels() (string, string) { return cs.Bench, cs.Technique.String() }

// cellIdentity is the canonical serialization a cell is content-addressed
// by: the full machine description (which embeds the instruction budget),
// the benchmark, the technique, the decay interval — and the simulator's
// checkpointVersion, so results can never alias across a format or
// semantics change. The JSON field order is irrelevant: the store hashes
// the canonicalized (sorted-key) form.
type cellIdentity struct {
	// Kind discriminates cell kinds in the store. Energy cells leave it
	// empty — omitempty drops the field from the canonical JSON, so every
	// pre-existing energy-cell hash stays byte-identical — while other cell
	// kinds (attackIdentity's "attack") always set theirs, so two kinds can
	// never alias one content address. The aliasing regression test pins
	// both properties.
	Kind              string        `json:"kind,omitempty"`
	CheckpointVersion int           `json:"checkpoint_version"`
	Machine           MachineConfig `json:"machine"`
	Bench             string        `json:"bench"`
	Technique         string        `json:"technique"`
	Interval          uint64        `json:"interval"`
}

// cellIdentityFor builds the identity document for one cell on mc.
func cellIdentityFor(mc MachineConfig, bench string, t leakctl.Technique, interval uint64) cellIdentity {
	return cellIdentity{
		CheckpointVersion: checkpointVersion,
		Machine:           mc,
		Bench:             bench,
		Technique:         t.String(),
		Interval:          interval,
	}
}

// CellHash returns the content address of one cell: the hex SHA-256 of its
// canonical identity document. Identical configurations hash identically
// across processes, hosts and struct-field reorderings; any change to the
// machine, the budget or checkpointVersion changes the address.
func CellHash(mc MachineConfig, bench string, t leakctl.Technique, interval uint64) (string, error) {
	return store.CanonicalHash(cellIdentityFor(mc, bench, t, interval))
}

// CellOutcome is the result of one RunCells cell.
type CellOutcome = Outcome[CellSpec, RunResult]

// RemoteCell is one energy cell's outcome as reported by a remote daemon.
type RemoteCell = RemoteOutcome[CellSpec, RunResult]

// RunCells executes an explicit set of cells (the daemon's entry point:
// a sweep request is a list of CellSpecs) through the resolution ladder.
// The returned outcomes parallel specs.
func (e *Experiments) RunCells(specs []CellSpec) ([]CellOutcome, error) {
	return e.energy.outcomes(specs, func(cs CellSpec) (runSpec, error) {
		prof, ok := workload.ByName(cs.Bench)
		if !ok {
			return runSpec{}, fmt.Errorf("unknown benchmark %q", cs.Bench)
		}
		return runSpec{prof, cs.L2, cs.Technique, cs.Interval}, nil
	})
}

// energyKind is the energy cell kind: one benchmark run on one machine,
// scored later for net leakage savings. Its batch phase and cost model
// (batch, saveCosts) live in experiments.go.
type energyKind struct{ e *Experiments }

func (energyKind) public(sp runSpec) CellSpec {
	return CellSpec{Bench: sp.prof.Name, L2: sp.l2, Technique: sp.tech, Interval: sp.interval}
}

func (k energyKind) identity(sp runSpec) any {
	return cellIdentityFor(k.e.suite(sp.l2).MC, sp.prof.Name, sp.tech, sp.interval)
}

func (energyKind) check(r RunResult) error { return checkRun(r) }

// checkRun rejects results with non-finite energies before they are
// accepted (and before they would poison the JSON checkpoint); the
// supervisor treats the rejection as a retryable failure.
func checkRun(r RunResult) error {
	for _, v := range []float64{
		r.Measurement.DCacheDynJ, r.Measurement.L2DynJ, r.Measurement.MemDynJ,
		r.Measurement.ICacheDynJ, r.Measurement.ClockJ,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite energy in result for %s", r.Bench)
		}
	}
	if r.CPU.Cycles == 0 {
		return fmt.Errorf("zero-cycle result for %s", r.Bench)
	}
	return nil
}

// job runs the cell under the per-attempt context (deadline + suite
// cancellation) and folds its wall time into the cost model. FaultNaN
// injection happens here — the generic supervisor cannot corrupt a
// RunResult, so the job corrupts its own energy figure and check catches
// it.
func (k energyKind) job(sp runSpec) harness.Job[RunResult] {
	e := k.e
	s := e.suite(sp.l2)
	return harness.Job[RunResult]{
		Cost: e.costOf(sp),
		Run: func(ctx context.Context) (RunResult, error) {
			params := leakctl.DefaultParams(sp.tech, sp.interval)
			// Fresh adapter state per attempt (and per trace-fallback
			// re-execution): a retried run must not inherit a failed or
			// discarded attempt's learned intervals.
			var adapterFor func() leakctl.Adapter
			if e.AdapterFor != nil {
				adapterFor = func() leakctl.Adapter {
					return e.AdapterFor(sp.prof.Name, sp.tech, sp.interval)
				}
			}
			st, _ := harness.WorkerValue(ctx).(*RunState)
			start := time.Now()
			r, err := runWithTrace(ctx, s.Traces, s.MC, sp.prof, params, adapterFor, st)
			if err != nil {
				return RunResult{}, err
			}
			e.mu.Lock()
			e.noteCostLocked(sp, time.Since(start))
			e.mu.Unlock()
			if e.Injector != nil &&
				e.Injector.Decide(sp.key(), harness.Attempt(ctx)) == faultinject.FaultNaN {
				r.Measurement.DCacheDynJ = math.NaN()
			}
			return r, nil
		},
	}
}

func (k energyKind) remote(ctx context.Context, specs []CellSpec) ([]RemoteCell, error) {
	return k.e.Remote.RunCells(ctx, k.e.Instructions, k.e.Warmup, specs)
}
