package obs_test

import (
	"strings"
	"testing"

	"hotleakage/internal/obs"

	// Linked for their package-level counter registrations — the same
	// packages any leakd or leakbench binary links, so this audit proves
	// the daemon's /metrics carries every counter family below even
	// before the first sweep increments it.
	_ "hotleakage/internal/attack"
	_ "hotleakage/internal/cluster"
	_ "hotleakage/internal/cpu"
	_ "hotleakage/internal/server"
	_ "hotleakage/internal/sim"
)

// TestPromEndpointCarriesAllCounterFamilies pins that every counter the
// subsystems register eagerly actually renders on the Prometheus text
// endpoint (value 0 before first use — absent is the bug this guards
// against: a counter that only appears after it first fires is invisible
// to dashboards and alerts that need to see it at zero).
func TestPromEndpointCarriesAllCounterFamilies(t *testing.T) {
	var sb strings.Builder
	if err := obs.Default.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := []string{
		// Security subsystem (internal/attack + internal/channel metrics).
		obs.MetricAttackRuns,
		obs.MetricAttackTrials,
		obs.MetricAttackProbes,
		obs.MetricChannelObserved,
		obs.MetricChannelEstimates,
		// Core pipeline self-profile and batch front fill.
		"sim_stage_tick_ns_total",
		"sim_stage_commit_ns_total",
		"sim_stage_issue_ns_total",
		"sim_stage_dispatch_ns_total",
		"sim_stage_fetch_ns_total",
		"sim_stage_sampled_cycles_total",
		"sim_front_fill_trace_total",
		"sim_front_fill_live_total",
		// Lockstep batching.
		obs.MetricBatchGroups,
		obs.MetricBatchLanes,
		obs.MetricBatchScalarFallback,
		// Store, federation, cluster.
		obs.MetricStoreHits,
		obs.MetricStoreMisses,
		obs.MetricFederationHits,
		obs.MetricFederationMisses,
		obs.MetricClusterShards,
		obs.MetricClusterSteals,
		obs.MetricClusterReshards,
		obs.MetricClusterWorkerDeaths,
		obs.MetricClusterCellsAcked,
		obs.MetricClusterShardQueueWait,
		// Daemon admission.
		obs.MetricSweepsAccepted,
		obs.MetricSweepsRejected,
		obs.MetricSweepsCompleted,
	}
	for _, name := range want {
		if !strings.Contains(out, "\n"+name+" ") && !strings.HasPrefix(out, name+" ") {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}
