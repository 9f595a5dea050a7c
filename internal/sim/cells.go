package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"

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

// Key returns the cell's run key (the memo and event identity).
func (cs CellSpec) Key() string { return runKey(cs.Bench, cs.L2, cs.Technique, cs.Interval) }

func (cs CellSpec) labels() (string, string) { return cs.Bench, cs.Technique.String() }

// cellIdentity is the canonical serialization a cell is content-addressed
// by: the full machine description (which embeds the instruction budget),
// the benchmark and, when it is not the registered one, its profile, the
// technique, the decay interval — and the simulator's checkpointVersion,
// so results can never alias across a format or semantics change. The
// JSON field order is irrelevant: the store hashes the canonicalized
// (sorted-key) form.
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
	// Profile is the benchmark's stream parameters when they differ from
	// the registered profile of that name (workload.ByName), as an edited
	// Experiments.Profiles entry does. A registered profile leaves it nil,
	// which omitempty drops, so every recorded hash stays byte-identical.
	Profile   *workload.Profile `json:"profile,omitempty"`
	Technique string            `json:"technique"`
	Interval  uint64            `json:"interval"`
}

// customProfile returns prof when it is not the registered profile of its
// name — the stream a CellSpec, a daemon or a name-keyed record means —
// and nil when it is.
func customProfile(prof workload.Profile) *workload.Profile {
	if reg, ok := workload.ByName(prof.Name); ok && reflect.DeepEqual(reg, prof) {
		return nil
	}
	return &prof
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
// A cell's benchmark is the Profiles entry of that name, as in the
// figures, else the registered profile. The returned outcomes parallel
// specs.
func (e *Experiments) RunCells(specs []CellSpec) ([]CellOutcome, error) {
	return e.energy.outcomes(specs, func(cs CellSpec) (runSpec, error) {
		prof, ok := e.profile(cs.Bench)
		if !ok {
			return runSpec{}, fmt.Errorf("unknown benchmark %q", cs.Bench)
		}
		return runSpec{prof, cs.L2, cs.Technique, cs.Interval}, nil
	})
}

// profile resolves a benchmark name the way the figures see it: the
// Profiles entry of that name, else the registered profile. A cell named
// over the API therefore runs the same stream, under the same run key, as
// the figure cell it shares that key with.
func (e *Experiments) profile(name string) (workload.Profile, bool) {
	for _, p := range e.Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return workload.ByName(name)
}

// energyKind is the energy cell kind: one benchmark run on one machine,
// scored later for net leakage savings. Its batch phase (batch) lives in
// experiments.go.
type energyKind struct{ e *Experiments }

func (energyKind) public(sp runSpec) CellSpec {
	return CellSpec{Bench: sp.prof.Name, L2: sp.l2, Technique: sp.tech, Interval: sp.interval}
}

func (k energyKind) identity(sp runSpec) any {
	id := cellIdentityFor(k.e.suite(sp.l2).MC, sp.prof.Name, sp.tech, sp.interval)
	id.Profile = customProfile(sp.prof)
	return id
}

// unaddressed refuses the store and the wire to an Experiments whose
// AdapterFor supplies adapters: a cell's identity cannot name a func, so
// an adaptive result would take a fixed-interval cell's content address,
// and Remote ships cells by name.
func (k energyKind) unaddressed() error {
	if k.e.AdapterFor != nil {
		return fmt.Errorf("%w: AdapterFor results have no content address, so they cannot use Store, Peer or Remote", ErrInvalidConfig)
	}
	return nil
}

func (energyKind) check(r RunResult) error { return checkRun(r) }

// checkRun rejects results with non-finite energies before they are
// accepted (and before they would poison the store); the supervisor
// treats the rejection as a retryable failure.
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

// job retries a cell whose lane failed: one attempt is the cell run as a
// group of one lane under the per-attempt context (deadline + suite
// cancellation), on a BatchState from the batch phase's pool. A lane that
// ran out of its deadline already was the cell's attempt 0, so that
// attempt reports the lane's error without running again. FaultNaN
// injection happens here — the generic supervisor cannot corrupt a
// RunResult, so the job corrupts its own energy figure and check catches
// it.
func (k energyKind) job(sp runSpec) harness.Job[RunResult] {
	e := k.e
	s := e.suite(sp.l2)
	e.mu.Lock()
	expired := e.expired[sp.key()]
	delete(e.expired, sp.key())
	e.mu.Unlock()
	return harness.Job[RunResult]{
		Run: func(ctx context.Context) (RunResult, error) {
			if expired != nil && harness.Attempt(ctx) == 0 {
				return RunResult{}, expired
			}
			// Fresh adapter state per attempt: a retried run must not
			// inherit a failed attempt's learned intervals.
			ln := &batchLane{sp: sp}
			if e.AdapterFor != nil {
				ln.adapter = e.AdapterFor(sp.prof.Name, sp.tech, sp.interval)
			}
			bs := e.acquireBatchState()
			defer e.releaseBatchState(bs)
			runBatchGroup(ctx, s.MC, sp.prof, []*batchLane{ln}, nil, bs)
			if ln.err != nil {
				return RunResult{}, ln.err
			}
			r := ln.res
			if e.Injector != nil &&
				e.Injector.Decide(sp.key(), harness.Attempt(ctx)) == faultinject.FaultNaN {
				r.Measurement.DCacheDynJ = math.NaN()
			}
			return r, nil
		},
	}
}

// remote ships cells by name, so a cell over an edited profile fails here:
// the daemon would simulate the registered profile of that name instead.
func (k energyKind) remote(ctx context.Context, sps []runSpec) ([]RemoteCell, error) {
	var ship []CellSpec
	var refused []RemoteCell
	for _, sp := range sps {
		if customProfile(sp.prof) == nil {
			ship = append(ship, k.public(sp))
			continue
		}
		refused = append(refused, RemoteCell{Spec: k.public(sp), Err: fmt.Sprintf(
			"%v: profile %q differs from the registered one, and a remote daemon simulates registered profiles only",
			ErrInvalidConfig, sp.prof.Name)})
	}
	if len(ship) == 0 {
		return refused, nil
	}
	cells, err := k.e.Remote.RunCells(ctx, k.e.Instructions, k.e.Warmup, ship)
	return append(cells, refused...), err
}
