package server

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// TestNoResultsOutsideTheStore pins that a daemon serves only what its
// store holds. A sweep is drained mid-flight, store GC then drops every
// record, and the restarted daemon must simulate the whole resubmitted
// sweep again: nothing under the store directory but its segments may
// keep a result GC dropped.
func TestNoResultsOutsideTheStore(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var benches []string
	for _, p := range workload.Profiles()[:4] {
		benches = append(benches, p.Name)
	}
	wide := api.SweepRequest{
		Instructions: 200_000,
		Warmup:       50_000,
		Benchmarks:   benches,
		Techniques:   []string{"drowsy", "gated-vss"},
		Intervals:    []uint64{2048, 8192},
		L2Latencies:  []int{11},
		Priority:     "bulk",
	}
	start := func(st *store.Store) (*Server, *api.Client, func()) {
		t.Helper()
		srv, err := New(testConfig(t, st))
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(srv.Handler())
		cl := api.NewClient(hts.URL)
		cl.PollInterval = 2 * time.Millisecond
		return srv, cl, func() {
			sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer scancel()
			if err := srv.Shutdown(sctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			hts.Close()
		}
	}

	st := openStore(t, dir)
	_, cl, stop := start(st)
	sub, err := cl.SubmitSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	for {
		stt, err := cl.Sweep(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if stt.Completed >= 2 {
			break
		}
		if api.Terminal(stt.State) {
			t.Fatalf("sweep finished (%s) before the drain could land; raise the budget", stt.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	if st.Len() == 0 {
		t.Fatal("the drained sweep stored nothing")
	}
	if _, err := st.GC(store.GCPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	_, cl2, stop2 := start(st2)
	defer stop2()
	sub2, err := cl2.SubmitSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl2.WaitSweep(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != api.StateCompleted || v.Executed != sub2.Total || v.StoreHits != 0 {
		t.Fatalf("resubmitted after GC: state=%s executed=%d store_hits=%d, want completed/%d/0 (%s)",
			v.State, v.Executed, v.StoreHits, sub2.Total, v.Error)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if ok, _ := filepath.Match("seg-*.jsonl", de.Name()); !ok || de.IsDir() {
			t.Errorf("store directory holds %s besides its segments", de.Name())
		}
	}
}
