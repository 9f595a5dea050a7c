// Package sim is the experiment harness: it assembles the Table 2 machine
// (core, predictor, caches, memory) around a workload profile, runs timing
// simulations, and evaluates the paper's metrics at arbitrary operating
// points. Timing and dynamic energy are temperature-independent in this
// model, so one timing run is reused across the temperature studies.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/cpu"
	"hotleakage/internal/energy"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/tech"
	"hotleakage/internal/workload"
)

// ErrInvalidConfig wraps configuration-validation failures. Retrying a run
// that failed with it is pointless; the supervisor fails such runs
// immediately.
var ErrInvalidConfig = errors.New("sim: invalid configuration")

// MachineConfig describes the simulated machine.
type MachineConfig struct {
	Tech       *tech.Params
	CPU        cpu.Config
	Bpred      bpred.Config
	L1I        cache.Config
	L1D        cache.Config
	L2         cache.Config
	MemLatency int
	// IL1Control, when non-nil, applies leakage control to the L1
	// instruction cache as well (extension study; the paper controls
	// only the D-cache).
	IL1Control *leakctl.Params
	// Warmup is the number of committed instructions simulated before
	// measurement begins (caches, predictor and decay state warm up;
	// statistics then reset) — the scaled-down analogue of the paper's
	// 2-billion-instruction skip.
	Warmup uint64
	// Instructions is the number of committed instructions measured.
	Instructions uint64
}

// DefaultMachine returns the paper's Table 2 configuration at 70 nm with
// the given L2 hit latency (the paper sweeps 5, 8, 11, 17). The technology
// parameters are a private copy, so a caller may override fields (e.g.
// ChipBackgroundW in the sensitivity ablation) without affecting other
// machines.
func DefaultMachine(l2Latency int) MachineConfig {
	t := *tech.MustByNode(tech.Node70)
	return MachineConfig{
		Tech:  &t,
		CPU:   cpu.DefaultConfig(),
		Bpred: bpred.DefaultConfig(),
		L1I: cache.Config{
			Name: "il1", SizeBytes: 64 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: 1,
		},
		L1D: cache.Config{
			Name: "dl1", SizeBytes: 64 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: 2,
		},
		L2: cache.Config{
			Name: "ul2", SizeBytes: 2 * 1024 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: l2Latency, Banks: 8,
		},
		MemLatency:   100,
		Warmup:       300_000,
		Instructions: 1_000_000,
	}
}

// Validate rejects impossible machine descriptions (zero sets/ways,
// non-positive latencies, degenerate cores, bad technology parameters)
// with descriptive errors before any simulation state is built.
func (mc MachineConfig) Validate() error {
	if mc.Tech == nil {
		return fmt.Errorf("machine has no technology parameters")
	}
	if err := mc.Tech.Validate(); err != nil {
		return err
	}
	if err := mc.CPU.Validate(); err != nil {
		return err
	}
	for _, c := range []cache.Config{mc.L1I, mc.L1D, mc.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if mc.MemLatency < 1 {
		return fmt.Errorf("memory latency must be >= 1 cycle (got %d)", mc.MemLatency)
	}
	if mc.Instructions == 0 {
		return fmt.Errorf("measured instruction count must be non-zero")
	}
	if mc.IL1Control != nil {
		if err := mc.IL1Control.Validate(); err != nil {
			return fmt.Errorf("IL1 control: %w", err)
		}
	}
	return nil
}

// RunResult bundles everything one simulation produced.
type RunResult struct {
	Bench       string
	Params      leakctl.Params
	CPU         cpu.Stats
	DStats      leakctl.Stats
	L2Stats     cache.Stats
	ICStats     cache.Stats
	Bpred       bpred.Stats
	TurnoffRat  float64
	Measurement energy.RunMeasurement

	// IL1Meas / IL1Stats are filled in when the I-cache is also under
	// leakage control (MachineConfig.IL1Control): the measurement's
	// StandbyLineCycles then refer to the I-cache so the same
	// energy.Compare machinery scores it against the L1I geometry.
	IL1Meas    *energy.RunMeasurement
	IL1Stats   *leakctl.Stats
	IL1Turnoff float64
}

// RunOne simulates the machine over one benchmark with the given
// leakage-control parameters. adapter, if non-nil, is installed on the
// controlled cache (adaptive decay study). The context carries the per-run
// deadline and suite-wide cancellation; a nil context means Background.
func RunOne(ctx context.Context, mc MachineConfig, prof workload.Profile, params leakctl.Params, adapter leakctl.Adapter) (RunResult, error) {
	return RunOneFrom(ctx, mc, prof.Name, workload.NewGenerator(prof), params, adapter)
}

// RunOneFrom is RunOne over an arbitrary instruction source — a live
// generator or a recorded trace (package trace) replayed from disk. A run
// reads its source no further than frontSlack instructions past warm-up
// plus measurement, so a trace recorded that long never wraps.
func RunOneFrom(ctx context.Context, mc MachineConfig, name string, src cpu.InstrSource, params leakctl.Params, adapter leakctl.Adapter) (RunResult, error) {
	return runOneFromState(ctx, mc, name, src, params, adapter, nil)
}

// runOneFromState is RunOneFrom as a group of one lane, with optional
// component reuse: a non-nil st contributes its previously built (and
// reset) machine when the configuration matches, and caches this run's
// machine for the next one.
func runOneFromState(ctx context.Context, mc MachineConfig, name string, src cpu.InstrSource, params leakctl.Params, adapter leakctl.Adapter, st *RunState) (RunResult, error) {
	ln := &batchLane{
		sp:      runSpec{prof: workload.Profile{Name: name}, l2: mc.L2.HitLatency, tech: params.Technique, interval: params.Interval},
		params:  &params,
		adapter: adapter,
	}
	runGroup(ctx, mc, name, src, []*batchLane{ln}, nil, &BatchState{lanes: []*RunState{st}})
	return ln.res, ln.err
}

// Point is one evaluated (benchmark, technique) cell of a figure.
type Point struct {
	Bench     string
	Technique leakctl.Technique
	Interval  uint64
	Cmp       energy.Comparison
	Run       RunResult
}

// Suite runs comparisons with baseline caching: the uncontrolled run for a
// (benchmark, L2 latency) pair is simulated once and reused. Baseline is
// safe for concurrent use and single-flight: concurrent callers that miss
// the cache elect one simulating leader per profile and the rest wait for
// its result instead of redundantly simulating the same baseline.
type Suite struct {
	MC        MachineConfig
	mu        sync.Mutex
	baselines map[string]*baselineCell
}

// baselineCell is one profile's single-flight slot. done is closed when
// the leader finishes; r/err are immutable afterwards. A failed leader
// removes its cell before closing done, so later callers retry rather
// than inheriting a stale error (e.g. the leader's cancelled context).
type baselineCell struct {
	done chan struct{}
	r    RunResult
	err  error
}

// NewSuite builds a suite over the given machine.
func NewSuite(mc MachineConfig) *Suite {
	return &Suite{MC: mc, baselines: make(map[string]*baselineCell)}
}

// Baseline returns (simulating on first use) the uncontrolled run for a
// profile. Under concurrency each profile's baseline is simulated exactly
// once per success; waiters respect their own context.
func (s *Suite) Baseline(ctx context.Context, prof workload.Profile) (RunResult, error) {
	for {
		s.mu.Lock()
		c, ok := s.baselines[prof.Name]
		if !ok {
			c = &baselineCell{done: make(chan struct{})}
			s.baselines[prof.Name] = c
			s.mu.Unlock()
			c.r, c.err = RunOne(ctx, s.MC, prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil)
			if c.err != nil {
				s.mu.Lock()
				delete(s.baselines, prof.Name)
				s.mu.Unlock()
			}
			close(c.done)
			return c.r, c.err
		}
		s.mu.Unlock()
		select {
		case <-c.done:
			if c.err == nil {
				return c.r, nil
			}
			// The leader failed; its cell is already removed.
			// Retry under our own context (which may itself be
			// done, caught by the other select arm next lap).
			if ctx != nil && ctx.Err() != nil {
				return RunResult{}, ctx.Err()
			}
		case <-ctxDone(ctx):
			return RunResult{}, ctx.Err()
		}
	}
}

// ctxDone tolerates the nil contexts RunOne also accepts.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// SetBaseline seeds the baseline cache with an already-computed run — a
// memoized or store-served one — so it is not re-simulated.
func (s *Suite) SetBaseline(name string, r RunResult) {
	s.mu.Lock()
	if c, ok := s.baselines[name]; ok {
		// Overwrite an in-flight or completed cell only if it is done;
		// an in-flight leader's result would race with the seed.
		select {
		case <-c.done:
		default:
			s.mu.Unlock()
			return
		}
	}
	done := make(chan struct{})
	close(done)
	s.baselines[name] = &baselineCell{done: done, r: r}
	s.mu.Unlock()
}

// Evaluate runs one technique on one benchmark and scores it at the given
// temperature (Celsius). adapter, if non-nil, is installed on the
// controlled cache (adaptive-decay studies run through the suite path like
// any other configuration). The leakage model is re-environmented, so a
// Suite can score the same timing run at several temperatures cheaply via
// EvaluateRun.
func (s *Suite) Evaluate(ctx context.Context, prof workload.Profile, params leakctl.Params, tempC float64, m *leakage.Model, adapter leakctl.Adapter) (Point, error) {
	run, err := RunOne(ctx, s.MC, prof, params, adapter)
	if err != nil {
		return Point{}, err
	}
	return s.EvaluateRun(ctx, prof, run, tempC, m)
}

// EvaluateRun scores an existing technique run against the cached baseline
// at the given temperature, with the tags in standby only if the run's
// params decay them: a run that keeps its tags awake is not credited their
// leakage.
func (s *Suite) EvaluateRun(ctx context.Context, prof workload.Profile, run RunResult, tempC float64, m *leakage.Model) (Point, error) {
	base, err := s.Baseline(ctx, prof)
	if err != nil {
		return Point{}, err
	}
	m.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(tempC), Vdd: s.MC.Tech.VddNominal})
	cmp, err := energy.CompareTags(m, s.MC.L1D, run.Params.Technique.Mode(), run.Params.DecayTags,
		base.Measurement, run.Measurement, s.MC.Tech.ClockHz)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Bench:     prof.Name,
		Technique: run.Params.Technique,
		Interval:  run.Params.Interval,
		Cmp:       cmp,
		Run:       run,
	}, nil
}

// String summarises a point for debugging.
func (p Point) String() string {
	return fmt.Sprintf("%-7s %-9s iv=%-6d net=%6.1f%% perf=%5.2f%% off=%4.1f%%",
		p.Bench, p.Technique, p.Interval, p.Cmp.NetSavingsPct, p.Cmp.PerfLossPct,
		100*p.Cmp.TurnoffRatio)
}
