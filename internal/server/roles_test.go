package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hotleakage/internal/cluster"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// The tests in this file run against both roles of the one front door:
// the single-node daemon and a cluster coordinator.

type role struct {
	name string
	h    http.Handler
}

// roles builds both front doors over st. The coordinator's one worker is
// never dialed: these tests stop at admission and health.
func roles(t *testing.T, st *store.Store) []role {
	t.Helper()
	daemon, err := server.New(server.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{Workers: []string{"127.0.0.1:1"}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = daemon.Shutdown(ctx)
		_ = coord.Shutdown(ctx)
	})
	return []role{{"daemon", daemon.Handler()}, {"coordinator", coord.Handler()}}
}

// TestHealthzQuarantineReason: a store that quarantined corrupt records at
// open makes the daemon report degraded with the count on the wire.
func TestHealthzQuarantineReason(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		key := map[string]int{"cell": i}
		h, err := store.CanonicalHash(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(h, key, map[string]any{"leakage": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Smash a byte in the middle of the segment: one record quarantines.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob: %v (%d segments)", err, len(segs))
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] = 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenOptions(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Quarantined() == 0 {
		t.Fatal("corrupted segment produced no quarantined records")
	}
	for _, r := range roles(t, st2) {
		t.Run(r.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			r.h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
			var hl api.Health
			if err := json.Unmarshal(rr.Body.Bytes(), &hl); err != nil {
				t.Fatalf("healthz body %q: %v", rr.Body.String(), err)
			}
			if rr.Code != http.StatusOK || hl.Status != "degraded" {
				t.Fatalf("quarantine healthz: %d %q, want 200 degraded", rr.Code, hl.Status)
			}
			if hl.StoreQuarantined == 0 {
				t.Error("health does not carry the quarantine count")
			}
		})
	}
}

// TestCrossProductBound: a few hundred bytes naming a 330,000-cell cross
// product (11 benchmarks × 3 techniques × 100 intervals × 100 L2
// latencies) get their 400 before a single cell is built.
func TestCrossProductBound(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	req := api.SweepRequest{Benchmarks: workload.Names(), Techniques: []string{"drowsy", "gated-vss", "rbb"}}
	for i := 0; i < 100; i++ {
		req.Intervals = append(req.Intervals, uint64(1024+i))
		req.L2Latencies = append(req.L2Latencies, 5+i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range roles(t, st) {
		t.Run(r.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rr := httptest.NewRecorder()
			r.h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
			runtime.ReadMemStats(&after)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("330,000-cell sweep answered %d, want 400: %s", rr.Code, rr.Body.String())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
				t.Errorf("refusing it allocated %d MiB, want under 16", alloc>>20)
			}
		})
	}
}
