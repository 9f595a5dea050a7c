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
)

// TestCompletedSweepLeavesNoCheckpoint pins that a daemon serves only what
// its store holds: a completed sweep deletes its per-request checkpoint,
// so once store GC drops the sweep's records a restarted daemon simulates
// the resubmitted sweep again instead of resuming it from a file GC never
// sees.
func TestCompletedSweepLeavesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sweep := func(st *store.Store) api.SweepStatus {
		t.Helper()
		srv, err := New(testConfig(t, st))
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(srv.Handler())
		defer hts.Close()
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer scancel()
			if err := srv.Shutdown(sctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		cl := api.NewClient(hts.URL)
		cl.PollInterval = 5 * time.Millisecond
		sub, err := cl.SubmitSweep(ctx, twoCellRequest())
		if err != nil {
			t.Fatal(err)
		}
		v, err := cl.WaitSweep(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	st := openStore(t, dir)
	defer st.Close()
	if v := sweep(st); v.State != api.StateCompleted || v.Executed != 2 {
		t.Fatalf("first sweep: state=%s executed=%d (%s), want completed/2", v.State, v.Executed, v.Error)
	}
	if _, err := st.GC(store.GCPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("checkpoints/ holds %d file(s) after a completed sweep, want none", len(left))
	}
	v := sweep(st)
	if v.State != api.StateCompleted || v.Executed != 2 || v.StoreHits != 0 || v.Resumed != 0 {
		t.Fatalf("resubmitted after GC: state=%s executed=%d store_hits=%d resumed=%d, want completed/2/0/0",
			v.State, v.Executed, v.StoreHits, v.Resumed)
	}
}
