// Package obs is the always-on observability layer: a counter/gauge
// registry the simulation packages (cpu, cache, leakctl, sim) register
// into, a JSONL telemetry/trace writer, a periodic snapshot sampler with a
// live progress display, and a Prometheus-style text exposition endpoint —
// everything needed to watch a multi-hour leakbench sweep like a production
// service instead of a black box.
//
// # Design: shared atomic counters, flushed at chunk boundaries
//
// The simulate loop commits millions of instructions per second per
// worker; a per-event atomic increment on a shared counter would
// serialize the workers on cache-line ping-pong and perturb the hot path.
// So nothing on the per-cycle or per-instruction paths touches obs: each
// component counts into its own Stats, and sim's run loop adds each
// lane's *batched deltas* to the shared counters every runChunk (50K)
// committed instructions — at most 39 atomic adds per lane per chunk on
// the Table 2 machine, off the hot path by construction. Each Counter is
// one atomic.Uint64, so concurrent adds and Snapshot's loads are
// race-free without any per-worker state.
//
// Gauges are plain atomics too; they are set a handful of times per sweep.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named counters and gauges. The zero value is not usable;
// use NewRegistry or the package-level Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   []*Gauge
	gaugeIdx map[string]*Gauge
}

// Default is the process-wide registry the simulation packages register
// into. Tests that need isolation construct their own with NewRegistry.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gaugeIdx: make(map[string]*Gauge),
	}
}

// Counter registers (or finds) a counter by name and returns it.
// Safe for concurrent use; registration is idempotent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Counter is one registered cumulative count, shared by every goroutine
// that adds to it.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if n != 0 {
		c.v.Add(n)
	}
}

// Gauge is a named instantaneous value (set, not accumulated).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Gauge registers (or finds) a gauge by name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gaugeIdx[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	r.gaugeIdx[name] = g
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Snapshot is a point-in-time view of every counter and gauge.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Counter returns a counter's value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot reads every counter and gauge into one view.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		cs[name] = c.v.Load()
	}
	gs := make(map[string]int64, len(r.gauges))
	for _, g := range r.gauges {
		gs[g.name] = g.Value()
	}
	return Snapshot{Counters: cs, Gauges: gs}
}

// WriteProm renders the registry in the Prometheus text exposition format
// (sorted by name, counters first), suitable for scraping.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, snap.Counters[n]); err != nil {
			return err
		}
	}
	gnames := make([]string, 0, len(snap.Gauges))
	for n := range snap.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, snap.Gauges[n]); err != nil {
			return err
		}
	}
	return nil
}

// Well-known metric names the sampler's progress/ETA math looks for. The
// packages that own them register them; they are listed here so the
// contract between producer and sampler is explicit.
const (
	// MetricInstructions is the cumulative committed-instruction counter
	// flushed by internal/cpu; the sampler derives instr/s from it.
	MetricInstructions = "sim_instructions_total"
	// GaugeCellsPlanned is the number of cells the suite has planned so
	// far (internal/sim), including store-served ones.
	GaugeCellsPlanned = "suite_cells_planned"
	// MetricRunsCompleted / MetricRunsFailed are the per-cell outcome
	// counters of internal/sim's attempt loop; with MetricStoreHits they
	// count every planned cell's answer.
	MetricRunsCompleted = "harness_runs_completed_total"
	MetricRunsFailed    = "harness_runs_failed_total"
	// MetricCheckpointHits is retired: it counted cells restored from the
	// harness checkpoint, which the result store replaced (a restored cell
	// is now a store hit), so nothing registers or increments it. The name
	// stays for readers that still look it up (the benchmark's per-layer
	// report), which read it as 0.
	MetricCheckpointHits = "harness_checkpoint_hits_total"
	// MetricTraceCacheHits is retired: it named the replays served by the
	// shared instruction-trace cache, which no longer exists, so nothing
	// registers or increments it. The name stays for readers that still
	// look it up (the benchmark's per-layer report), which read it as 0.
	MetricTraceCacheHits = "trace_cache_hits_total"
	// MetricStoreHits / Misses count cells resolved by (or missing from)
	// the content-addressed result store (internal/sim + internal/store).
	MetricStoreHits   = "store_hits_total"
	MetricStoreMisses = "store_misses_total"
	// Daemon metrics (internal/server): instantaneous queue depth across
	// both priority classes, sweeps currently executing, and sweep
	// admission outcomes. Rejected counts 429s from a full queue and 503s
	// while draining.
	GaugeQueueDepth       = "server_queue_depth"
	GaugeSweepsInFlight   = "server_sweeps_inflight"
	MetricSweepsAccepted  = "server_sweeps_accepted_total"
	MetricSweepsRejected  = "server_sweeps_rejected_total"
	MetricSweepsCompleted = "server_sweeps_completed_total"
	// Robustness metrics: operations the fault plane actually faulted
	// (internal/harness/faultinject); records quarantined by the store's
	// corruption recovery and bytes reclaimed / records dropped by its
	// GC (internal/store); API-client retries and circuit-breaker state
	// transitions (internal/server/api); remote batches the resolution
	// ladder degraded to local simulation (internal/sim); and the
	// server's recovered handler panics, watchdog-killed sweeps, and
	// sweeps completed despite store trouble (internal/server).
	MetricFaultplaneInjected  = "faultplane_injected_total"
	MetricStoreQuarantined    = "store_quarantined_total"
	MetricStoreGCRuns         = "store_gc_runs_total"
	MetricStoreGCDropped      = "store_gc_dropped_total"
	MetricStoreGCReclaimedB   = "store_gc_reclaimed_bytes_total"
	MetricAPIRetries          = "api_retries_total"
	MetricAPIBreakerOpens     = "api_breaker_opens_total"
	MetricAPIBreakerFastFails = "api_breaker_fastfails_total"
	MetricRemoteDegraded      = "sim_remote_degraded_total"
	MetricServerPanics        = "server_handler_panics_total"
	MetricWatchdogTimeouts    = "server_watchdog_timeouts_total"
	MetricSweepsDegraded      = "server_sweeps_degraded_total"
	// Batched lockstep execution (internal/sim): groups of two or more
	// lanes executed in lockstep, lanes (cells) those groups carried,
	// lanes of a failed energy cell's later attempts (one per cell and
	// retry; the name predates the one run loop), and the most recent
	// sweep's mean lanes-per-group occupancy in hundredths (e.g. 1450 =
	// 14.5 lanes/group).
	MetricBatchGroups         = "sim_batch_groups_total"
	MetricBatchLanes          = "sim_batch_lanes_total"
	MetricBatchScalarFallback = "sim_batch_scalar_fallback_total"
	GaugeBatchLaneOccupancy   = "sim_batch_lane_occupancy_x100"
	// Sweep retention (internal/server): terminal sweeps evicted from the
	// in-memory lookup maps after the retention window.
	MetricSweepsEvicted = "server_sweeps_evicted_total"
	// Store federation (internal/sim): cells a node resolved from its
	// peer's store view after a local miss, and peer lookups that missed
	// (or errored, degrading to simulation).
	MetricFederationHits   = "sim_federation_hits_total"
	MetricFederationMisses = "sim_federation_misses_total"
	// Cluster coordinator (internal/cluster): shard groups dispatched to
	// workers, groups stolen by idle workers from loaded queues, groups
	// re-sharded off a dead worker onto survivors, workers declared dead
	// mid-sweep, cells acknowledged (result fetched, verified and
	// persisted coordinator-side), the milliseconds shards sat queued on
	// their worker before it started them (over shards dispatched, the
	// mean queue wait), and the live-worker gauge health and placement
	// read.
	MetricClusterShards         = "cluster_shards_dispatched_total"
	MetricClusterSteals         = "cluster_steals_total"
	MetricClusterReshards       = "cluster_reshards_total"
	MetricClusterWorkerDeaths   = "cluster_worker_deaths_total"
	MetricClusterCellsAcked     = "cluster_cells_acked_total"
	MetricClusterShardQueueWait = "cluster_shard_queue_wait_ms_total"
	GaugeClusterWorkersAlive    = "cluster_workers_alive"
	// Timing-leakage security subsystem (internal/attack, internal/channel):
	// adversarial scenario runs completed, prime+probe trials and individual
	// probes executed, trials recorded into empirical channel distributions,
	// and metric sets (guessing entropy / min-entropy leakage / capacity)
	// computed over them. See DESIGN.md section 14.
	MetricAttackRuns       = "attack_runs_total"
	MetricAttackTrials     = "attack_trials_total"
	MetricAttackProbes     = "attack_probes_total"
	MetricChannelObserved  = "channel_observations_total"
	MetricChannelEstimates = "channel_estimates_total"
)

// Delta returns cur-prev saturating at cur when a counter source was reset
// between flushes (warmup ResetStats), so delta flushing never underflows.
func Delta(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}
