// Package obs is the always-on observability layer: a counter/gauge
// registry the simulation packages (cpu, cache, leakctl, harness) register
// into, a JSONL telemetry/trace writer, a periodic snapshot sampler with a
// live progress display, and a Prometheus-style text exposition endpoint —
// everything needed to watch a multi-hour leakbench sweep like a production
// service instead of a black box.
//
// # Design: sharded counters, merged on snapshot
//
// The simulate loop commits ~6M instructions per second per worker; a
// per-event atomic increment on a shared counter would serialize the
// workers on cache-line ping-pong and perturb the hot path the fast-forward
// optimization fought for. Counters are therefore sharded: each simulating
// goroutine acquires a private Shard (a padded array indexed by CounterID)
// and adds *batched deltas* to it at chunk boundaries — sim.RunOneFrom
// flushes its components' existing Stats structs into the shard every
// runChunk (50K) committed instructions, so the per-cycle and
// per-instruction paths never touch obs at all. A snapshot merges all
// shards (plus the totals of released shards) under the registry lock.
//
// Shard slots are atomic.Uint64 so the sampler's reads are race-free, but
// only the owning goroutine writes a shard, and only ~20 times per million
// simulated instructions — the atomics are off the hot path by
// construction, not by luck.
//
// Gauges and the direct Counter.Add path are for low-frequency events
// (suite progress, harness retries/faults) where a shared atomic is fine.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// CounterID indexes a registered counter within every Shard.
type CounterID int

// maxCounters bounds the registry so shards can be fixed-size arrays that
// are never reallocated (a growing slice would race with snapshot reads).
// The whole stack registers a few dozen counters; hitting this limit is a
// programming error, reported by panic at registration time.
const maxCounters = 512

// shardPad is the number of leading/trailing slots left unused in each
// shard's value array so two shards never share a cache line even when the
// allocator places them adjacently (8 slots × 8 bytes = 64 B).
const shardPad = 8

// Registry holds named counters and gauges. The zero value is not usable;
// use NewRegistry or the package-level Default.
type Registry struct {
	mu       sync.Mutex
	names    []string // by CounterID
	index    map[string]CounterID
	shards   []*Shard // every live acquired shard
	free     []*Shard // released shards available for reuse
	retired  []uint64 // totals folded in from released shards
	gauges   []*Gauge
	gaugeIdx map[string]*Gauge

	// base is the shard behind Counter.Add: shared by all goroutines,
	// written with atomic adds. Fine for low-frequency events.
	base *Shard
}

// Default is the process-wide registry the simulation packages register
// into. Tests that need isolation construct their own with NewRegistry.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		index:    make(map[string]CounterID),
		gaugeIdx: make(map[string]*Gauge),
		retired:  make([]uint64, 0, 64),
	}
	r.base = newShard(r)
	return r
}

// Counter registers (or finds) a counter by name and returns its handle.
// Safe for concurrent use; registration is idempotent.
func (r *Registry) Counter(name string) Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.index[name]; ok {
		return Counter{r: r, id: id}
	}
	if len(r.names) >= maxCounters {
		panic(fmt.Sprintf("obs: more than %d counters registered (at %q)", maxCounters, name))
	}
	id := CounterID(len(r.names))
	r.names = append(r.names, name)
	r.index[name] = id
	r.retired = append(r.retired, 0)
	return Counter{r: r, id: id}
}

// Counter is a handle to one registered counter.
type Counter struct {
	r  *Registry
	id CounterID
}

// ID returns the counter's shard index, for use with Shard.Add.
func (c Counter) ID() CounterID { return c.id }

// Add increments the counter through the registry's shared base shard.
// This path takes an atomic RMW on a shared line — use it for events
// (retries, faults, cells), not for anything on a simulate path; bulk
// simulation counters go through a private Shard.
func (c Counter) Add(n uint64) {
	if n == 0 {
		return
	}
	c.r.base.vals[shardPad+int(c.id)].Add(n)
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

// Shard is one goroutine's private accumulation slice over every counter.
// Only the acquiring goroutine may call Add; any goroutine may read through
// Registry.Snapshot. Release returns the shard to the registry's pool,
// folding its totals into the retired accumulator first.
type Shard struct {
	r    *Registry
	vals []atomic.Uint64 // shardPad + maxCounters + shardPad slots
}

func newShard(r *Registry) *Shard {
	return &Shard{r: r, vals: make([]atomic.Uint64, maxCounters+2*shardPad)}
}

// AcquireShard returns a zeroed shard for exclusive use by the calling
// goroutine.
func (r *Registry) AcquireShard() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s *Shard
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		s = newShard(r)
	}
	r.shards = append(r.shards, s)
	return s
}

// Add accumulates n into counter id. Owner-goroutine only.
func (s *Shard) Add(id CounterID, n uint64) {
	if n == 0 {
		return
	}
	v := &s.vals[shardPad+int(id)]
	v.Store(v.Load() + n) // single writer; atomic store keeps readers safe
}

// Release folds the shard's totals into the registry and returns it to the
// pool. The caller must not use the shard afterwards.
func (s *Shard) Release() {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.retired {
		v := &s.vals[shardPad+i]
		r.retired[i] += v.Load()
		v.Store(0)
	}
	for i, sh := range r.shards {
		if sh == s {
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			break
		}
	}
	r.free = append(r.free, s)
}

// Snapshot is a merged, point-in-time view of every counter and gauge.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Counter returns a counter's merged value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot merges the base shard, every live shard and the retired totals
// into one view. It holds the registry lock for the duration, which is
// fine: shard owners never take the lock on their add path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := make(map[string]uint64, len(r.names))
	for i, name := range r.names {
		total := r.retired[i] + r.base.vals[shardPad+i].Load()
		for _, sh := range r.shards {
			total += sh.vals[shardPad+i].Load()
		}
		cs[name] = total
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
	// far (internal/sim), including checkpoint-resolved ones.
	GaugeCellsPlanned = "suite_cells_planned"
	// MetricRunsCompleted / MetricRunsFailed / MetricCheckpointHits are
	// the harness's per-cell outcome counters.
	MetricRunsCompleted  = "harness_runs_completed_total"
	MetricRunsFailed     = "harness_runs_failed_total"
	MetricCheckpointHits = "harness_checkpoint_hits_total"
	// MetricWorkerBusyMS is the harness pool's cumulative busy time in
	// milliseconds summed over workers; GaugeWorkers is the pool size of
	// the most recent batch. Per-worker busy time is the gauge series
	// harness_worker_NN_busy_ms.
	MetricWorkerBusyMS = "harness_worker_busy_ms_total"
	GaugeWorkers       = "harness_workers"
	// MetricTraceCacheHits / Misses / Bytes / Wraps instrument the sweep's
	// shared instruction-trace cache (internal/sim): replays served from a
	// recorded buffer, buffers recorded, resident encoded bytes, and
	// replays discarded because the simulation consumed past the recorded
	// length (forcing a live-generation fallback).
	MetricTraceCacheHits   = "trace_cache_hits_total"
	MetricTraceCacheMisses = "trace_cache_misses_total"
	MetricTraceCacheBytes  = "trace_cache_bytes_total"
	MetricTraceCacheWraps  = "trace_cache_wraps_total"
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
	// sweeps completed despite store/checkpoint trouble (internal/server).
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
	// Batched lockstep execution (internal/sim): groups executed in
	// lockstep, lanes (cells) those groups carried, cells that fell out of
	// a batch back to the scalar supervisor path, and the most recent
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
