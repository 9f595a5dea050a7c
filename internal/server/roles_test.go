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
	"strings"
	"sync"
	"testing"
	"time"

	"hotleakage/internal/cluster"
	"hotleakage/internal/obs"
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

// served is one role of the front door behind a real listener.
type served struct {
	url      string
	shutdown func(context.Context) error

	mu      sync.Mutex
	waiting map[string]chan struct{} // sweep ID -> closed when its stream arrives
}

// arrival returns a channel that is closed when the next event stream
// request for sweep id reaches the front door.
func (s *served) arrival(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan struct{})
	s.waiting[id] = ch
	return ch
}

// serve starts one role on fresh stores with a single sweep slot: the
// daemon itself, or a coordinator over one real worker.
func serve(t *testing.T, role string) *served {
	t.Helper()
	open := func() *store.Store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	listen := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	stop := func(shutdown func(context.Context) error) {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = shutdown(ctx)
		})
	}
	daemon := func(st *store.Store) *server.Server {
		d, err := server.New(server.Config{Store: st, Workers: 2, SweepConcurrency: 1,
			DefaultInstructions: rolesInstr, DefaultWarmup: rolesWarmup})
		if err != nil {
			t.Fatal(err)
		}
		stop(d.Shutdown)
		return d
	}
	s := &served{waiting: make(map[string]chan struct{})}
	var h http.Handler
	switch role {
	case "daemon":
		d := daemon(open())
		h, s.shutdown = d.Handler(), d.Shutdown
	case "coordinator":
		c, err := cluster.New(cluster.Config{Workers: []string{listen(daemon(open()).Handler())},
			Store: open(), SweepConcurrency: 1, DefaultInstructions: rolesInstr, DefaultWarmup: rolesWarmup})
		if err != nil {
			t.Fatal(err)
		}
		stop(c.Shutdown)
		h, s.shutdown = c.Handler(), c.Shutdown
	}
	s.url = listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/sweeps/"), "/events"); ok {
			s.mu.Lock()
			if ch := s.waiting[id]; ch != nil {
				close(ch)
				delete(s.waiting, id)
			}
			s.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	return s
}

const rolesInstr, rolesWarmup = 60_000, 20_000

// oneCell is a one-cell gzip sweep at decay interval iv.
func oneCell(iv uint64, priority string) api.SweepRequest {
	return api.SweepRequest{Instructions: rolesInstr, Warmup: rolesWarmup, Priority: priority,
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: iv}}}
}

// TestStreamEndMeansTerminal pins the invariant api.Client.WatchSweep
// rests on, in both roles: once a sweep's event stream ends cleanly, one
// status read already shows the sweep terminal, because the front door
// sets the state before it writes the terminal event and closes the
// stream. It covers fresh sweeps, a resubmit aliased onto an in-flight
// sweep, and a queued sweep canceled by drain.
func TestStreamEndMeansTerminal(t *testing.T) {
	for _, name := range []string{"daemon", "coordinator"} {
		t.Run(name, func(t *testing.T) {
			s := serve(t, name)
			cl := api.NewClient(s.url)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			submit := func(req api.SweepRequest) api.SweepStatus {
				t.Helper()
				st, err := cl.SubmitSweep(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			// settled streams a sweep to its end, then reads the status once.
			settled := func(id string) api.SweepStatus {
				t.Helper()
				if err := cl.StreamEvents(ctx, id, func(obs.Record) {}); err != nil {
					t.Fatalf("stream %s: %v", id, err)
				}
				st, err := cl.Sweep(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if !api.Terminal(st.State) {
					t.Fatalf("sweep %s is %s after its event stream ended", id, st.State)
				}
				return st
			}

			for _, iv := range []uint64{2048, 4096, 8192} {
				if st := settled(submit(oneCell(iv, "")).ID); st.State != api.StateCompleted {
					t.Fatalf("fresh sweep %s ended %s (%s)", st.ID, st.State, st.Error)
				}
			}

			// hold submits a wide bulk sweep of fresh cells and waits until
			// it occupies the only sweep slot, so the next sweep queues.
			hold := func(iv uint64) {
				t.Helper()
				wide := submit(api.SweepRequest{Instructions: 200_000, Warmup: 50_000, Priority: "bulk",
					Benchmarks: workload.Names()[:4], Techniques: []string{"drowsy", "gated-vss"},
					Intervals: []uint64{iv, 2 * iv}, L2Latencies: []int{11}})
				for st := wide; st.State != api.StateRunning; {
					if api.Terminal(st.State) {
						t.Fatalf("wide sweep %s ended %s before the test used it", st.ID, st.State)
					}
					time.Sleep(2 * time.Millisecond)
					var err error
					if st, err = cl.Sweep(ctx, wide.ID); err != nil {
						t.Fatal(err)
					}
				}
			}

			// A resubmit of a queued sweep aliases onto it.
			hold(1000)
			first := submit(oneCell(16384, "interactive"))
			again := submit(oneCell(16384, "interactive"))
			if again.ID != first.ID {
				t.Fatalf("resubmit got sweep %s, want the queued %s", again.ID, first.ID)
			}
			if st := settled(again.ID); st.State != api.StateCompleted {
				t.Fatalf("aliased sweep ended %s (%s)", st.State, st.Error)
			}

			// A queued sweep is canceled by the drain, its stream request in flight.
			hold(3000)
			queued := submit(oneCell(32768, "bulk"))
			if queued.State != api.StateQueued {
				t.Fatalf("sweep behind the wide one is %s, want queued", queued.State)
			}
			arrived := s.arrival(queued.ID)
			got := make(chan api.SweepStatus, 1)
			go func() {
				defer close(got)
				if err := cl.StreamEvents(ctx, queued.ID, func(obs.Record) {}); err != nil {
					t.Errorf("stream %s: %v", queued.ID, err)
					return
				}
				st, err := cl.Sweep(ctx, queued.ID)
				if err != nil {
					t.Error(err)
					return
				}
				got <- st
			}()
			select {
			case <-arrived:
			case <-ctx.Done():
				t.Fatal("the queued sweep's stream never reached the front door")
			}
			if err := s.shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			st, ok := <-got
			if !ok {
				return // the goroutine reported why
			}
			if st.State != api.StateCanceled {
				t.Fatalf("drained sweep is %s after its event stream ended, want canceled", st.State)
			}
		})
	}
}
