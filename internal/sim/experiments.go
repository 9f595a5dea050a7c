package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// Lockstep-batch outcome metrics: executed groups of two or more lanes,
// the lanes they carried, lanes whose cell the supervisor retried, and the
// last sweep's mean occupancy (lanes per shared group, in hundredths).
var (
	obsBatchGroups    = obs.Default.Counter(obs.MetricBatchGroups)
	obsBatchLanes     = obs.Default.Counter(obs.MetricBatchLanes)
	obsBatchFallback  = obs.Default.Counter(obs.MetricBatchScalarFallback)
	obsBatchOccupancy = obs.Default.Gauge(obs.GaugeBatchLaneOccupancy)
)

// DefaultInterval is the fixed decay interval used for the non-adaptive
// figures. The paper chose "shorter decay intervals that — for our leakage
// model — we found to give better energy savings"; 4K cycles plays that
// role here.
const DefaultInterval = 4096

// SweepIntervals are the candidate decay intervals of the adaptivity study
// (Figures 12-13 and Table 3).
var SweepIntervals = []uint64{1024, 2048, 4096, 8192, 16384, 32768, 65536}

// checkpointVersion is bumped whenever the simulator changes in a way that
// invalidates previously stored results. Every content address includes
// it, so it stays 1 until such a change.
const checkpointVersion = 1

// Experiments runs and caches every simulation the paper's figures need.
// Timing runs are cached by (benchmark, L2 latency, technique, interval),
// so the 85C and 110C variants of a figure reuse one run, and Table 3
// shares the sweep with Figures 12-13.
//
// Every simulation is executed under supervision: panics are recovered
// into structured failures, per-run deadlines and suite-wide cancellation
// are enforced, transient failures retry with backoff, and with a Store
// each completed run is written to it as it settles. A failed run degrades
// to an ERR cell in the affected figures instead of aborting the suite;
// Failures and FailureSummary report what went wrong.
type Experiments struct {
	// Instructions / Warmup configure run length (committed instructions).
	Instructions uint64
	Warmup       uint64
	// Profiles are the benchmarks, in presentation order.
	Profiles []workload.Profile
	// Variation optionally enables the inter-die Monte Carlo.
	Variation leakage.VariationConfig
	// Workers sizes the supervisor and batch worker pools: 0 means
	// runtime.GOMAXPROCS(0), and 1 runs serially.
	Workers int
	// DisableBatch runs every cell as a group of one lane, so no two
	// cells share a front. Results are bit-identical either way — the
	// parity suite enforces it — so this is a debugging/benchmarking knob,
	// not a correctness one.
	DisableBatch bool

	// Store, when non-nil, is the content-addressed result store and the
	// one durable record of a run: before a cell is executed its hash is
	// looked up, and every cell simulated is persisted as it settles,
	// before it counts as executed, so identical cells are served from disk
	// across processes and daemon restarts, and a killed suite resumes from
	// the cells it finished.
	Store *store.Store

	// Peer, when non-nil, extends the resolution ladder with a federated
	// store view: a cell that misses the local Store is fetched from the
	// peer (normally the cluster coordinator) before being simulated, and
	// a peer hit is persisted into the local Store so the next miss is
	// local. Peer trouble (unreachable, garbage) degrades to simulation —
	// it never fails a cell. First-write-wins store semantics make a
	// double-computed cell (both sides simulated it) harmless.
	Peer CellFetcher

	// Remote, when non-nil, delegates execution of pending cells to a
	// leakd daemon (leakbench -remote): the local process keeps the memo,
	// evaluation and rendering layers and ships only simulation out.
	Remote RemoteRunner
	// RemoteFallback lets a batch whose remote delegation fails at the
	// transport level (daemon down, circuit open, sweep failed) degrade to
	// the local resolution ladder — store, simulation — instead of failing
	// the batch. Per-cell remote failures are still per-cell verdicts, not
	// a reason to re-run locally.
	RemoteFallback bool

	// Ctx, when non-nil, cancels the whole suite (SIGINT handling in the
	// commands). In-flight runs drain as Canceled failures; completed
	// results are kept.
	Ctx context.Context
	// RunTimeout is the per-run deadline (0 = none).
	RunTimeout time.Duration
	// MaxRetries is how many times a transiently failed run is re-executed
	// (capped exponential backoff between attempts).
	MaxRetries int
	// Injector, when non-nil, injects faults into runs (testing only).
	Injector faultinject.Injector
	// Events, when non-nil, receives the structured trace events (run
	// start/retry/fault/done/error, store hits), keyed by the run key. A
	// cell's run_done arrives after its Store write.
	Events harness.EventSink
	// AdapterFor, when non-nil, supplies the leakage-control adapter for
	// each run (adaptive-decay studies through the supervised path). It is
	// invoked once per attempt so retried runs get fresh adapter state and
	// stay deterministic. A cell's content address cannot name a func, and
	// Remote ships cells by name, so with Store, Peer or Remote set every
	// energy cell fails with ErrInvalidConfig.
	AdapterFor func(bench string, t leakctl.Technique, interval uint64) leakctl.Adapter

	mu     sync.Mutex
	suites map[int]*Suite // per L2 latency
	// energy and attacks are the two kinds' resolution ladders (ladder.go).
	energy    *ladder[CellSpec, runSpec, RunResult]
	attacks   *ladder[AttackSpec, AttackSpec, attack.Result]
	executed  int // runs actually simulated this process
	storeHits int // runs served from the content-addressed store
	remoted   int // runs delegated to a remote daemon
	storeErr  error

	// batchGroups / batchLanes count lockstep groups of two or more lanes
	// executed and the cells they carried; batchStates is the pool of
	// batch scratch (front window, lane RunStates) reused across groups,
	// batch phases and the supervisor's retries.
	batchGroups int
	batchLanes  int
	batchStates []*BatchState
	// expired holds, by run key, the error of each batch lane that ran
	// out of RunTimeout, until the supervisor's job for that cell takes
	// it as the cell's attempt 0.
	expired map[string]error
}

// NewExperiments returns the paper's experiment set at reduced scale
// (defaults: 1M measured instructions after a 300K warmup; the paper used
// 500M after 2B on full SPEC).
func NewExperiments() *Experiments {
	e := &Experiments{
		Instructions: 1_000_000,
		Warmup:       300_000,
		Profiles:     workload.Profiles(),
		suites:       make(map[int]*Suite),
	}
	e.energy = newLadder[CellSpec, runSpec, RunResult](e, energyKind{e})
	e.attacks = newLadder[AttackSpec, AttackSpec, attack.Result](e, attackKind{e})
	return e
}

func (e *Experiments) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Experiments) suite(l2 int) *Suite {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.suites[l2]
	if !ok {
		mc := DefaultMachine(l2)
		mc.Instructions = e.Instructions
		mc.Warmup = e.Warmup
		s = NewSuite(mc)
		e.suites[l2] = s
	}
	return s
}

func runKey(bench string, l2 int, t leakctl.Technique, interval uint64) string {
	return fmt.Sprintf("%s/%d/%d/%d", bench, l2, t, interval)
}

// workers sizes the supervisor and batch worker pools: Workers when set,
// else GOMAXPROCS.
func (e *Experiments) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// keepStoreErr retains the first result-store failure for Err.
func (e *Experiments) keepStoreErr(err error) {
	e.mu.Lock()
	if e.storeErr == nil {
		e.storeErr = err
	}
	e.mu.Unlock()
}

// runSpec names one simulation the supervisor should produce.
type runSpec struct {
	prof     workload.Profile
	l2       int
	tech     leakctl.Technique
	interval uint64
}

func (sp runSpec) key() string { return runKey(sp.prof.Name, sp.l2, sp.tech, sp.interval) }

// batch is the energy kind's batch phase, the one way cells are
// simulated: it runs every pending cell as a lane of a lockstep group —
// one group per (benchmark, machine config), or one lane per group under
// DisableBatch — hands each lane's result to settle as its group ends,
// and returns the cells whose lane failed, for the supervisor to retry.
// A lane that ran out of RunTimeout counts as its cell's attempt 0 (see
// energyKind.job).
func (k energyKind) batch(pending []runSpec, settle func(runSpec, RunResult)) (remaining []runSpec) {
	e := k.e
	type batchGroup struct {
		prof  workload.Profile
		l2    int
		lanes []*batchLane
	}
	index := make(map[string]*batchGroup)
	var groups []*batchGroup
	for _, sp := range pending {
		key := fmt.Sprintf("%s/%d", sp.prof.Name, sp.l2)
		if e.DisableBatch {
			key = sp.key()
		}
		g := index[key]
		if g == nil {
			g = &batchGroup{prof: sp.prof, l2: sp.l2}
			index[key] = g
			groups = append(groups, g)
		}
		ln := &batchLane{sp: sp, timeout: e.RunTimeout}
		if e.AdapterFor != nil {
			ln.adapter = e.AdapterFor(sp.prof.Name, sp.tech, sp.interval)
		}
		g.lanes = append(g.lanes, ln)
	}

	// Largest group first, as the cluster coordinator books shards: whole
	// groups (not cells) are the dispatch unit, so batchable cells stay
	// together, and a wide group cannot start last and stretch the phase's
	// tail. Stable, so equal widths keep plan order.
	sort.SliceStable(groups, func(i, j int) bool { return len(groups[i].lanes) > len(groups[j].lanes) })

	workers := min(e.workers(), len(groups))
	ctx := e.ctx()
	queue := make(chan *batchGroup)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs := e.acquireBatchState()
			defer e.releaseBatchState(bs)
			for g := range queue {
				s := e.suite(g.l2)
				if e.Events != nil {
					for _, ln := range g.lanes {
						e.Events.Write(obs.Record{Type: "run_start", RunID: ln.sp.key()})
					}
				}
				runBatchGroup(ctx, s.MC, g.prof, g.lanes, e.Injector, bs)
				for _, ln := range g.lanes {
					if ln.err != nil {
						continue
					}
					settle(ln.sp, ln.res)
					obsRunsCompleted.Add(1)
					if e.Events != nil {
						e.Events.Write(obs.Record{Type: "run_done", RunID: ln.sp.key(), Attempt: 1})
					}
				}
			}
		}()
	}
	for _, g := range groups {
		queue <- g
	}
	close(queue)
	wg.Wait()

	// The batch counters describe lockstep sharing, so they count groups
	// of two or more lanes only.
	shared, lanes := 0, 0
	e.mu.Lock()
	for _, g := range groups {
		if len(g.lanes) > 1 {
			shared++
			lanes += len(g.lanes)
		}
		for _, ln := range g.lanes {
			if ln.err != nil {
				remaining = append(remaining, ln.sp)
				obsBatchFallback.Add(1)
			}
			if ln.expired {
				if e.expired == nil {
					e.expired = make(map[string]error)
				}
				e.expired[ln.sp.key()] = ln.err
			}
		}
	}
	e.batchGroups += shared
	e.batchLanes += lanes
	e.mu.Unlock()
	if shared > 0 {
		obsBatchGroups.Add(uint64(shared))
		obsBatchLanes.Add(uint64(lanes))
		obsBatchOccupancy.Set(int64(lanes * 100 / shared))
	}
	return remaining
}

// acquireBatchState pops (or creates) one batch executor's reusable
// scratch; releaseBatchState returns it to the pool.
func (e *Experiments) acquireBatchState() *BatchState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.batchStates); n > 0 {
		bs := e.batchStates[n-1]
		e.batchStates = e.batchStates[:n-1]
		return bs
	}
	return new(BatchState)
}

func (e *Experiments) releaseBatchState(bs *BatchState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batchStates = append(e.batchStates, bs)
}

// BatchGroups returns how many lockstep groups of two or more lanes this
// process has executed; BatchLanes returns how many cells those groups
// carried. Their ratio is the sweep's lane occupancy.
func (e *Experiments) BatchGroups() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batchGroups
}

// BatchLanes returns the number of cells executed as lanes of lockstep
// groups of two or more.
func (e *Experiments) BatchLanes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batchLanes
}

// run returns the (cached) timing run for one configuration, executing it
// on first use. A previously failed run returns its memoized failure
// instead of re-executing.
func (e *Experiments) run(prof workload.Profile, l2 int, t leakctl.Technique, interval uint64) (RunResult, error) {
	return e.energy.get(runSpec{prof, l2, t, interval})
}

// prefetch simulates a set of configurations concurrently so later cached
// lookups are cheap. Each benchmark's baseline and technique variants are
// planned together in one call: they share an instruction stream and a
// machine config, so the batch phase locksteps the whole row — baseline
// included — as one group (planning baselines separately would run each
// as a group of one, generating its stream again). Individual failures
// are memoized, not fatal.
func (e *Experiments) prefetch(l2 int, techs []leakctl.Technique, intervals []uint64) {
	specs := make([]runSpec, 0, len(e.Profiles)*(1+len(techs)*len(intervals)))
	for _, prof := range e.Profiles {
		specs = append(specs, runSpec{prof, l2, leakctl.TechNone, 0})
		for _, t := range techs {
			for _, iv := range intervals {
				specs = append(specs, runSpec{prof, l2, t, iv})
			}
		}
	}
	_ = e.energy.resolve(specs)
}

// Failures returns the structured failure record of every run that could
// not be completed, sorted by key for stable reporting.
func (e *Experiments) Failures() []*harness.RunError {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*harness.RunError, 0, len(e.energy.failures))
	for _, f := range e.energy.failures {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// FailureSummary renders the failed runs as a human-readable block, or ""
// when every run completed. Commands print it and exit non-zero.
func (e *Experiments) FailureSummary() string {
	fails := e.Failures()
	if len(fails) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d run(s) failed:\n", len(fails))
	for _, f := range fails {
		fmt.Fprintf(&b, "  %s\n", f.Error())
		if f.Panic != "" {
			// First stack line is enough to locate the fault; the full
			// trace stays in the structured record.
			if i := strings.IndexByte(f.Stack, '\n'); i > 0 {
				fmt.Fprintf(&b, "    %s\n", f.Stack[:i])
			}
		}
	}
	return b.String()
}

// Executed returns how many runs were actually simulated by this process.
// With a Store, each counted run was written to it first.
func (e *Experiments) Executed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.executed
}

// StoreHits returns the number of runs served from the content-addressed
// result store.
func (e *Experiments) StoreHits() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.storeHits
}

// Remoted returns the number of runs delegated to a remote daemon.
func (e *Experiments) Remoted() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.remoted
}

// Err surfaces the first result-store read or write failure. Results
// themselves are unaffected: a cell whose write failed is still returned,
// and simulated again by the next process.
func (e *Experiments) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.storeErr
}

// Close releases nothing: an Experiments holds no files (its Store belongs
// to whoever opened it). It stays so callers can pair it with
// NewExperiments.
func (e *Experiments) Close() error { return nil }

// model builds a fresh leakage model (with the configured variation).
func (e *Experiments) model(l2 int) *leakage.Model {
	return leakage.New(e.suite(l2).MC.Tech, leakage.WithVariation(e.Variation))
}

// Cell is one (benchmark, technique) result in a figure.
type Cell struct {
	Bench string
	Point Point
}

// Figure is one reproduced figure: per-benchmark series for drowsy and
// gated-Vss plus their averages, for one metric. A cell whose run failed
// is flagged in DrowsyErr/GatedErr: it renders as ERR and is excluded from
// the averages, so one lost run does not take the whole figure down.
type Figure struct {
	ID     string
	Title  string
	Metric string // "net savings %" or "perf loss %"
	Bench  []string
	Drowsy []float64
	Gated  []float64
	// DrowsyErr/GatedErr mark failed cells (nil when every run
	// completed; indexes parallel Bench).
	DrowsyErr []bool
	GatedErr  []bool
}

// errAt reports whether cell i of a (possibly nil) error slice failed.
func errAt(errs []bool, i int) bool { return i < len(errs) && errs[i] }

// meanSkipping averages vals, excluding cells flagged in errs.
func meanSkipping(vals []float64, errs []bool) float64 {
	var sum float64
	n := 0
	for i, v := range vals {
		if errAt(errs, i) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Avg returns the arithmetic means of the two series, skipping failed
// cells.
func (f Figure) Avg() (drowsy, gated float64) {
	return meanSkipping(f.Drowsy, f.DrowsyErr), meanSkipping(f.Gated, f.GatedErr)
}

// FailedCells counts cells flagged as failed across both series.
func (f Figure) FailedCells() int {
	n := 0
	for i := range f.Bench {
		if errAt(f.DrowsyErr, i) {
			n++
		}
		if errAt(f.GatedErr, i) {
			n++
		}
	}
	return n
}

// csvCell renders one CSV value, or ERR for a failed cell.
func csvCell(v float64, failed bool) string {
	if failed {
		return "ERR"
	}
	return fmt.Sprintf("%.4f", v)
}

// CSV renders the figure as RFC-4180-ish comma-separated rows
// (benchmark,drowsy,gated) with a header, for plotting tools.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark,drowsy,gated-vss\n")
	for i, n := range f.Bench {
		fmt.Fprintf(&b, "%s,%s,%s\n", n,
			csvCell(f.Drowsy[i], errAt(f.DrowsyErr, i)),
			csvCell(f.Gated[i], errAt(f.GatedErr, i)))
	}
	ad, ag := f.Avg()
	fmt.Fprintf(&b, "AVG,%.4f,%.4f\n", ad, ag)
	return b.String()
}

// tableCell renders one aligned table value, or ERR for a failed cell.
func tableCell(v float64, failed bool) string {
	if failed {
		return "ERR"
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the figure as an aligned text table, the harness's
// equivalent of the paper's bar charts.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", f.ID, f.Title, f.Metric)
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "bench", "drowsy", "gated-vss")
	for i, n := range f.Bench {
		fmt.Fprintf(&b, "%-8s %10s %10s\n", n,
			tableCell(f.Drowsy[i], errAt(f.DrowsyErr, i)),
			tableCell(f.Gated[i], errAt(f.GatedErr, i)))
	}
	ad, ag := f.Avg()
	fmt.Fprintf(&b, "%-8s %10.2f %10.2f\n", "AVG", ad, ag)
	return b.String()
}

// evalCell evaluates one (benchmark, technique, interval) cell, reporting
// failure if the technique run or the shared baseline could not be
// produced.
func (e *Experiments) evalCell(s *Suite, m *leakage.Model, prof workload.Profile, l2 int, t leakctl.Technique, iv uint64, tempC float64) (Point, bool) {
	// A failed baseline fails every cell of the benchmark's row: there is
	// nothing to compare against.
	base, err := e.run(prof, l2, leakctl.TechNone, 0)
	if err != nil {
		return Point{}, false
	}
	// EvaluateRun scores against the suite's baseline cache: seed it with
	// the ladder's run so the baseline is never simulated twice.
	s.SetBaseline(prof.Name, base)
	r, err := e.run(prof, l2, t, iv)
	if err != nil {
		return Point{}, false
	}
	p, err := s.EvaluateRun(e.ctx(), prof, r, tempC, m)
	if err != nil {
		return Point{}, false
	}
	return p, true
}

// LatencyFigure reproduces one (net savings, perf loss) figure pair at the
// given L2 latency, temperature and fixed decay interval. Failed runs
// degrade to ERR cells.
func (e *Experiments) LatencyFigure(idSav, idPerf string, l2 int, tempC float64, interval uint64) (sav, perf Figure) {
	e.prefetch(l2, []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated}, []uint64{interval})
	m := e.model(l2)
	s := e.suite(l2)

	title := fmt.Sprintf("L2 latency %d cycles, %.0fC, interval %d", l2, tempC, interval)
	sav = Figure{ID: idSav, Title: title, Metric: "net leakage savings %"}
	perf = Figure{ID: idPerf, Title: title, Metric: "performance loss %"}
	for _, prof := range e.Profiles {
		dp, dok := e.evalCell(s, m, prof, l2, leakctl.TechDrowsy, interval, tempC)
		gp, gok := e.evalCell(s, m, prof, l2, leakctl.TechGated, interval, tempC)
		sav.Bench = append(sav.Bench, prof.Name)
		sav.Drowsy = append(sav.Drowsy, dp.Cmp.NetSavingsPct)
		sav.Gated = append(sav.Gated, gp.Cmp.NetSavingsPct)
		sav.DrowsyErr = append(sav.DrowsyErr, !dok)
		sav.GatedErr = append(sav.GatedErr, !gok)
		perf.Bench = append(perf.Bench, prof.Name)
		perf.Drowsy = append(perf.Drowsy, dp.Cmp.PerfLossPct)
		perf.Gated = append(perf.Gated, gp.Cmp.PerfLossPct)
		perf.DrowsyErr = append(perf.DrowsyErr, !dok)
		perf.GatedErr = append(perf.GatedErr, !gok)
	}
	return sav, perf
}

// Figure3_4 is the 5-cycle L2 pair at 110C.
func (e *Experiments) Figure3_4() (Figure, Figure) {
	return e.LatencyFigure("Figure 3", "Figure 4", 5, 110, DefaultInterval)
}

// Figure5_6 is the 8-cycle L2 pair at 110C.
func (e *Experiments) Figure5_6() (Figure, Figure) {
	return e.LatencyFigure("Figure 5", "Figure 6", 8, 110, DefaultInterval)
}

// Figure7 is net savings at 85C with an 11-cycle L2 (the timing runs are
// shared with Figure 8).
func (e *Experiments) Figure7() Figure {
	sav, _ := e.LatencyFigure("Figure 7", "-", 11, 85, DefaultInterval)
	return sav
}

// Figure8_9 is the 11-cycle L2 pair at 110C.
func (e *Experiments) Figure8_9() (Figure, Figure) {
	return e.LatencyFigure("Figure 8", "Figure 9", 11, 110, DefaultInterval)
}

// Figure10_11 is the 17-cycle L2 pair at 110C.
func (e *Experiments) Figure10_11() (Figure, Figure) {
	return e.LatencyFigure("Figure 10", "Figure 11", 17, 110, DefaultInterval)
}

// BestIntervalResult is one benchmark's best-decay-interval outcome for one
// technique (Figures 12-13, Table 3). Failed reports that no interval of
// the sweep produced a usable run for this benchmark/technique.
type BestIntervalResult struct {
	Bench    string
	Interval uint64
	Point    Point
	Failed   bool
}

// SweepBest finds, per benchmark and technique, the decay interval in
// SweepIntervals with the highest net savings at the given operating point.
// This is the oracle the paper uses for its adaptivity headroom study.
// Intervals whose run failed are skipped; a benchmark/technique with no
// surviving interval is marked Failed.
func (e *Experiments) SweepBest(l2 int, tempC float64) (drowsy, gated []BestIntervalResult) {
	techs := []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated}
	e.prefetch(l2, techs, SweepIntervals)
	m := e.model(l2)
	s := e.suite(l2)
	for _, prof := range e.Profiles {
		for _, t := range techs {
			best := BestIntervalResult{Bench: prof.Name, Failed: true}
			for _, iv := range SweepIntervals {
				p, ok := e.evalCell(s, m, prof, l2, t, iv, tempC)
				if !ok {
					continue
				}
				if best.Failed || p.Cmp.NetSavingsPct > best.Point.Cmp.NetSavingsPct {
					best.Interval = iv
					best.Point = p
					best.Failed = false
				}
			}
			if t == leakctl.TechDrowsy {
				drowsy = append(drowsy, best)
			} else {
				gated = append(gated, best)
			}
		}
	}
	return drowsy, gated
}

// Figure12_13 reproduces the best-per-benchmark-interval pair: net savings
// at 85C (Figure 12) and performance loss (Figure 13), both with an
// 11-cycle L2.
func (e *Experiments) Figure12_13() (Figure, Figure) {
	dr, gt := e.SweepBest(11, 85)
	sav := Figure{ID: "Figure 12", Title: "best per-benchmark decay interval, 85C, L2=11", Metric: "net leakage savings %"}
	perf := Figure{ID: "Figure 13", Title: "best per-benchmark decay interval, L2=11", Metric: "performance loss %"}
	for i := range dr {
		sav.Bench = append(sav.Bench, dr[i].Bench)
		sav.Drowsy = append(sav.Drowsy, dr[i].Point.Cmp.NetSavingsPct)
		sav.Gated = append(sav.Gated, gt[i].Point.Cmp.NetSavingsPct)
		sav.DrowsyErr = append(sav.DrowsyErr, dr[i].Failed)
		sav.GatedErr = append(sav.GatedErr, gt[i].Failed)
		perf.Bench = append(perf.Bench, dr[i].Bench)
		perf.Drowsy = append(perf.Drowsy, dr[i].Point.Cmp.PerfLossPct)
		perf.Gated = append(perf.Gated, gt[i].Point.Cmp.PerfLossPct)
		perf.DrowsyErr = append(perf.DrowsyErr, dr[i].Failed)
		perf.GatedErr = append(perf.GatedErr, gt[i].Failed)
	}
	return sav, perf
}

// Table3 returns the best decay intervals per benchmark (paper Table 3),
// from the same sweep as Figures 12-13.
func (e *Experiments) Table3() string {
	dr, gt := e.SweepBest(11, 85)
	iv := func(r BestIntervalResult) string {
		if r.Failed {
			return "ERR"
		}
		return fmt.Sprintf("%dk", r.Interval/1024)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — best decay intervals (cycles)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "bench", "drowsy", "gated-vss")
	for i := range dr {
		fmt.Fprintf(&b, "%-8s %10s %10s\n", dr[i].Bench, iv(dr[i]), iv(gt[i]))
	}
	return b.String()
}

// IntervalCurve returns net savings and perf loss per interval for one
// benchmark and technique (used by ablation benches and the adaptive
// study). Intervals whose run failed are omitted from the curve.
func (e *Experiments) IntervalCurve(bench string, t leakctl.Technique, l2 int, tempC float64) []Point {
	prof, ok := e.profile(bench)
	if !ok {
		return nil
	}
	m := e.model(l2)
	s := e.suite(l2)
	var out []Point
	for _, iv := range SweepIntervals {
		if p, ok := e.evalCell(s, m, prof, l2, t, iv, tempC); ok {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Interval < out[j].Interval })
	return out
}
