package sim

// Regression tests for the hardwired-nil-adapter bug: Suite.Evaluate used
// to pass nil to RunOne regardless of caller intent, so the Section 5.4
// adaptive policies were unreachable through the suite path (and through
// Experiments, which runs everything via the suite's machines).

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hotleakage/internal/adaptive"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// aggressiveFeedback is a controller tuned to reprogram the interval many
// times within a short test run: tiny window, near-zero tolerance.
func aggressiveFeedback(start uint64) *adaptive.Feedback {
	fb := adaptive.NewFeedback(start, 0.01)
	fb.Window = 2048
	return fb
}

func TestSuiteEvaluatePlumbsAdapter(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	s := NewSuite(fastMachine(11))
	m := leakage.New(s.MC.Tech)
	params := leakctl.DefaultParams(leakctl.TechDrowsy, 4096)

	fixed := mustT(s.Evaluate(context.Background(), prof, params, 110, m, nil))

	fb := aggressiveFeedback(4096)
	adapted := mustT(s.Evaluate(context.Background(), prof, params, 110, m, fb))

	if fb.Changes == 0 {
		t.Fatal("adapter never reprogrammed the interval through Suite.Evaluate — the suite path is dropping the adapter")
	}
	if adapted.Run.DStats == fixed.Run.DStats {
		t.Fatal("adaptive run has identical D-cache stats to the fixed-interval run; adapter had no effect on the simulation")
	}
}

func TestExperimentsAdapterForReachesRuns(t *testing.T) {
	fixed := tinyExperiments()
	fixed.Workers = 1
	prof := fixed.Profiles[0]
	base, err := fixed.run(prof, 5, leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}

	adapted := tinyExperiments()
	adapted.Workers = 1
	calls := 0
	adapted.AdapterFor = func(bench string, tq leakctl.Technique, iv uint64) leakctl.Adapter {
		calls++
		if tq == leakctl.TechNone {
			return nil // baselines stay uncontrolled
		}
		return aggressiveFeedback(iv)
	}
	r, err := adapted.run(prof, 5, leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}

	if calls == 0 {
		t.Fatal("AdapterFor never consulted by the supervised job")
	}
	if r.DStats == base.DStats {
		t.Fatal("AdapterFor-supplied adapter had no effect on the supervised run")
	}
}

// TestAdapterForRefusesTheStore is the aliasing probe for adaptive runs. A
// cell's content address cannot name an adapter, so an adaptive gcc run
// stored under it would be served to a later fixed-interval run of the
// same cell. An Experiments with AdapterFor therefore fails its cells
// when it has a Store or a Remote (which ships cells by name), and the
// fixed run simulates its own result.
func TestAdapterForRefusesTheStore(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prof, _ := workload.ByName("gcc")
	adaptFor := func(_ string, tq leakctl.Technique, iv uint64) leakctl.Adapter {
		if tq == leakctl.TechNone {
			return nil
		}
		return aggressiveFeedback(iv)
	}

	adapted := tinyExperiments()
	adapted.Store = st
	adapted.AdapterFor = adaptFor
	if _, err := adapted.run(prof, 5, leakctl.TechDrowsy, 4096); err == nil || !strings.Contains(err.Error(), ErrInvalidConfig.Error()) {
		t.Fatalf("AdapterFor with a Store: err = %v, want %v", err, ErrInvalidConfig)
	}
	r := &recordingRunner{inner: tinyExperiments()}
	remote := tinyExperiments()
	remote.Remote = r
	remote.AdapterFor = adaptFor
	if _, err := remote.run(prof, 5, leakctl.TechDrowsy, 4096); err == nil || len(r.sent) != 0 {
		t.Fatalf("AdapterFor with a Remote: err = %v, shipped %v; want a failure and nothing shipped", err, r.sent)
	}

	fixed := tinyExperiments()
	fixed.Store = st
	got, err := fixed.run(prof, 5, leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.StoreHits() != 0 || fixed.Executed() != 1 {
		t.Fatalf("fixed run over the same store: store_hits=%d executed=%d, want 0/1", fixed.StoreHits(), fixed.Executed())
	}
	want, err := tinyExperiments().run(prof, 5, leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the fixed run over the store differs from a fixed run without one")
	}
}
