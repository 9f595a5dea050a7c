package harness

import (
	"fmt"

	"hotleakage/internal/obs"
)

// EventSink receives structured trace events from the supervisor. The
// records carry the job key as RunID, so one run's events join on it.
// *obs.TraceWriter satisfies the interface.
type EventSink interface {
	Write(obs.Record)
}

// Supervisor-level counters: low-frequency outcome events, recorded
// through the registry's shared base shard.
var (
	obsRunsCompleted = obs.Default.Counter(obs.MetricRunsCompleted)
	obsRunsFailed    = obs.Default.Counter(obs.MetricRunsFailed)
	obsRetries       = obs.Default.Counter("harness_retries_total")
	obsFaults        = obs.Default.Counter("harness_faults_injected_total")
	obsPanics        = obs.Default.Counter("harness_panics_total")
	obsWorkerBusy    = obs.Default.Counter(obs.MetricWorkerBusyMS)
	obsWorkersGauge  = obs.Default.Gauge(obs.GaugeWorkers)
)

// workerBusyGauge returns the cumulative busy-time gauge for worker w.
// Gauges live in an unbounded map (unlike the fixed counter table), so the
// per-worker series scales to any pool size; registration is idempotent,
// so repeated batches on the same pool geometry reuse the same gauges.
func workerBusyGauge(w int) *obs.Gauge {
	return obs.Default.Gauge(fmt.Sprintf("harness_worker_%02d_busy_ms", w))
}

// emit sends a trace event if a sink is configured; counter side effects
// happen at the call sites so they fire even without a sink.
func (s *Supervisor[T]) emit(rec obs.Record) {
	if s.cfg.Events != nil {
		s.cfg.Events.Write(rec)
	}
}
