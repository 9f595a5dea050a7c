package api_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
)

// TestWaitWakesOnStream: against a real daemon with a one-minute
// PollInterval, WaitSweep and RunCells on a small sweep return in well
// under the poll period — the end of the sweep's event stream wakes them —
// and each reads the sweep's status exactly once.
func TestWaitWakesOnStream(t *testing.T) {
	const instr, warmup = 60_000, 20_000
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := server.New(server.Config{Store: st, Workers: 1,
		DefaultInstructions: instr, DefaultWarmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	var statusReads atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/") &&
			!strings.HasSuffix(r.URL.Path, "/events") {
			statusReads.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	cl := api.NewClient(ts.URL)
	cl.PollInterval = time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	start := time.Now()
	sub, err := cl.SubmitSweep(ctx, api.SweepRequest{Instructions: instr, Warmup: warmup,
		Cells: []api.Cell{
			{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
			{Bench: "gzip", L2: 11, Technique: "gated-vss", Interval: 4096},
		}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("WaitSweep returned after %v, want under 5s", d)
	}
	if final.State != api.StateCompleted || final.Completed != 2 {
		t.Fatalf("WaitSweep: state=%s completed=%d (%s)", final.State, final.Completed, final.Error)
	}
	if n := statusReads.Load(); n != 1 {
		t.Errorf("WaitSweep read the status %d times, want 1", n)
	}

	statusReads.Store(0)
	start = time.Now()
	outs, err := cl.RunCells(ctx, instr, warmup, []sim.CellSpec{
		{Bench: "gcc", L2: 11, Technique: leakctl.TechDrowsy, Interval: 8192},
		{Bench: "gcc", L2: 11, Technique: leakctl.TechGated, Interval: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("RunCells returned after %v, want under 5s", d)
	}
	for _, o := range outs {
		if o.Err != "" || o.Result.Bench != o.Spec.Bench {
			t.Errorf("cell %+v: err=%q, result for %q", o.Spec, o.Err, o.Result.Bench)
		}
	}
	if n := statusReads.Load(); n != 1 {
		t.Errorf("RunCells read the status %d times, want 1", n)
	}
}
