package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/workload"
)

// requireIdle fails unless every worker's load is back to zero.
func requireIdle(t *testing.T, d *Dispatcher) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for addr, n := range d.load {
		if n != 0 {
			t.Errorf("worker %s holds load %d after every sweep ended, want 0", addr, n)
		}
	}
}

// runSweep submits req to the coordinator and waits for its verdict.
func runSweep(ctx context.Context, t *testing.T, cl *api.Client, req api.SweepRequest) api.SweepStatus {
	t.Helper()
	st, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// cancelQueuedSweep runs testSweep on a single worker that holds every
// shard POST, under a timeout_s that expires while the first (gzip)
// shard is in flight and the second (gcc) is still queued.
func cancelQueuedSweep(t *testing.T) (*Coordinator, api.SweepStatus) {
	t.Helper()
	url, _ := holdWorker(t)
	coord, coordTS, _ := startCoordinator(t, []string{url}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := testSweep()
	req.TimeoutS = 0.3
	return coord, runSweep(ctx, t, fastDial(coordTS.URL), req)
}

// TestClusterCanceledSweepLeavesCellsPending: a canceled sweep leaves
// every cell it never answered pending, including the cells of shards it
// never dispatched; none fails as "no live workers".
func TestClusterCanceledSweepLeavesCellsPending(t *testing.T) {
	_, final := cancelQueuedSweep(t)
	if final.State != api.StateCanceled {
		t.Fatalf("sweep ended %s (%s), want canceled", final.State, final.Error)
	}
	for _, cs := range final.Cells {
		if cs.State != "pending" {
			t.Errorf("cell %s/%s ended %s %q, want pending", cs.Bench, cs.Technique, cs.State, cs.Error)
		}
	}
}

// TestClusterLoadBooks: every worker's load returns to zero however a
// sweep's shards end.
func TestClusterLoadBooks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	t.Run("completed", func(t *testing.T) {
		a, _ := startWorker(t, server.Config{})
		b, _ := startWorker(t, server.Config{})
		coord, coordTS, _ := startCoordinator(t, []string{a.URL, b.URL}, nil)
		if final := runSweep(ctx, t, fastDial(coordTS.URL), testSweep()); final.State != api.StateCompleted || final.Failed != 0 {
			t.Fatalf("sweep ended %s with %d failed (%s)", final.State, final.Failed, final.Error)
		}
		requireIdle(t, coord.Dispatcher)
	})

	t.Run("canceled with a shard queued", func(t *testing.T) {
		coord, final := cancelQueuedSweep(t)
		if final.State != api.StateCanceled {
			t.Fatalf("sweep ended %s (%s), want canceled", final.State, final.Error)
		}
		requireIdle(t, coord.Dispatcher)
	})

	t.Run("refused", func(t *testing.T) {
		ts, _ := startWorker(t, server.Config{MaxCells: 1})
		coord, coordTS, _ := startCoordinator(t, []string{ts.URL}, nil)
		req := testSweep()
		req.Cells = req.Cells[:2]
		if final := runSweep(ctx, t, fastDial(coordTS.URL), req); final.State != api.StateFailed {
			t.Fatalf("refused shard: sweep ended %s, want failed", final.State)
		}
		requireIdle(t, coord.Dispatcher)
	})

	t.Run("worker death", func(t *testing.T) {
		// Two groups on two idle workers: one lands on each, so the
		// worker that drops every connection is contacted, declared
		// dead, and its shard re-booked onto the survivor.
		live, _ := startWorker(t, server.Config{})
		gone := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			panic(http.ErrAbortHandler)
		}))
		t.Cleanup(gone.Close)
		coord, coordTS, _ := startCoordinator(t, []string{live.URL, gone.URL}, nil)
		final := runSweep(ctx, t, fastDial(coordTS.URL), testSweep())
		if final.State != api.StateCompleted || final.Completed != 4 {
			t.Fatalf("sweep ended %s with %d of 4 completed (%s)", final.State, final.Completed, final.Error)
		}
		if !coord.workers[gone.URL].isDead() {
			t.Fatal("the unreachable worker was never declared dead")
		}
		requireIdle(t, coord.Dispatcher)
	})
}

// shardRecorder fronts a cluster's workers. It reports the worker each
// shard POST reaches, and holds the first POST after arm until release.
type shardRecorder struct {
	posts chan string
	mu    sync.Mutex
	gate  chan struct{}
}

func (rec *shardRecorder) arm() (release func()) {
	gate := make(chan struct{})
	rec.mu.Lock()
	rec.gate = gate
	rec.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

type recordingHandler struct {
	h    http.Handler
	addr string
	rec  *shardRecorder
}

func (rh *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		rh.rec.mu.Lock()
		gate := rh.rec.gate
		rh.rec.gate = nil
		rh.rec.mu.Unlock()
		rh.rec.posts <- rh.addr
		if gate != nil {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
	}
	rh.h.ServeHTTP(w, r)
}

// ringOwnedCell returns a fresh energy cell at interval iv, other than
// skip, whose one-cell shard group the ring assigns to addr.
func ringOwnedCell(t *testing.T, d *Dispatcher, addr string, iv uint64, skip api.Cell) api.Cell {
	t.Helper()
	mc := sim.DefaultMachine(11)
	mc.Instructions, mc.Warmup = testInstr, testWarmup
	for _, bench := range workload.Names() {
		for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			c := api.FromSpec(sim.CellSpec{Bench: bench, L2: 11, Technique: tech, Interval: iv})
			if c == skip {
				continue
			}
			h, err := sim.CellHash(mc, bench, tech, iv)
			if err != nil {
				t.Fatal(err)
			}
			if owner, _ := d.ring.Owner(h); owner == addr {
				return c
			}
		}
	}
	t.Fatalf("no cell at interval %d is owned by %s", iv, addr)
	return api.Cell{}
}

// TestClusterPlacementAcrossSweeps: a shard goes to the idle worker, not
// to its ring owner while that owner is busy with another sweep's shard.
// Each round holds sweep A's shard POST on the worker it reached, then
// submits sweep B, whose one group the ring gives to that same worker.
func TestClusterPlacementAcrossSweeps(t *testing.T) {
	const rounds = 8
	// One slot per sweep, so no worker handler ever blocks on it.
	rec := &shardRecorder{posts: make(chan string, 2*rounds)}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{Store: openStore(t, t.TempDir()), Workers: 2,
			DefaultInstructions: testInstr, DefaultWarmup: testWarmup})
		if err != nil {
			t.Fatal(err)
		}
		rh := &recordingHandler{h: srv.Handler(), rec: rec}
		ts := httptest.NewServer(rh)
		rh.addr = ts.URL
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
	}
	coord, coordTS, _ := startCoordinator(t, urls, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)
	nextPost := func(what string) string {
		t.Helper()
		select {
		case addr := <-rec.posts:
			return addr
		case <-ctx.Done():
			t.Fatalf("%s never reached a worker", what)
			return ""
		}
	}

	for round := 0; round < rounds; round++ {
		iv := uint64(3000 + round) // fresh cells every round
		release := rec.arm()
		cellA := api.Cell{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: iv}
		a, err := cl.SubmitSweep(ctx, api.SweepRequest{Instructions: testInstr, Warmup: testWarmup,
			Cells: []api.Cell{cellA}})
		if err != nil {
			t.Fatal(err)
		}
		busy := nextPost("sweep A's shard")

		cellB := ringOwnedCell(t, coord.Dispatcher, busy, iv, cellA)
		b, err := cl.SubmitSweep(ctx, api.SweepRequest{Instructions: testInstr, Warmup: testWarmup,
			Cells: []api.Cell{cellB}})
		if err != nil {
			t.Fatal(err)
		}
		if got := nextPost("sweep B's shard"); got == busy {
			t.Errorf("round %d: sweep B's shard went to its ring owner %s, busy with sweep A's, while the other worker idled", round, busy)
		}
		release()

		for _, id := range []string{a.ID, b.ID} {
			final, err := cl.WaitSweep(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != api.StateCompleted || final.Failed != 0 {
				t.Fatalf("round %d: sweep %s ended %s with %d failed (%s)", round, id, final.State, final.Failed, final.Error)
			}
		}
		requireIdle(t, coord.Dispatcher)
	}
}
