package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hotleakage/internal/obs"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
)

const (
	testInstr  = 60_000
	testWarmup = 20_000
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// startWorker spins up one real leakd worker over a fresh store.
func startWorker(t *testing.T, cfg server.Config) (*httptest.Server, *store.Store) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = openStore(t, t.TempDir())
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.DefaultInstructions == 0 {
		cfg.DefaultInstructions = testInstr
		cfg.DefaultWarmup = testWarmup
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts, cfg.Store
}

// fastDial builds worker clients tuned for tests: quick polls and a short
// retry budget so an injected worker death is detected in milliseconds.
func fastDial(addr string) *api.Client {
	c := api.NewClient(addr)
	c.PollInterval = 20 * time.Millisecond
	c.Retry = api.RetryPolicy{Attempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	return c
}

// startCoordinator builds a coordinator over the given worker URLs.
func startCoordinator(t *testing.T, workerURLs []string, mutate func(*Config)) (*Coordinator, *httptest.Server, *store.Store) {
	t.Helper()
	st := openStore(t, t.TempDir())
	cfg := Config{
		Workers:             workerURLs,
		Store:               st,
		DefaultInstructions: testInstr,
		DefaultWarmup:       testWarmup,
		Dial:                fastDial,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	return coord, ts, st
}

func testSweep() api.SweepRequest {
	return api.SweepRequest{
		Instructions: testInstr,
		Warmup:       testWarmup,
		Cells: []api.Cell{
			{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
			{Bench: "gzip", L2: 11, Technique: "gated-vss", Interval: 4096},
			{Bench: "gcc", L2: 11, Technique: "drowsy", Interval: 4096},
			{Bench: "gcc", L2: 11, Technique: "rbb", Interval: 4096},
		},
	}
}

// TestClusterParity: a 3-worker cluster must produce bit-identical stored
// values to a single-node daemon for the same sweep — the acceptance bar
// for sharding being invisible to clients.
func TestClusterParity(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		ts, _ := startWorker(t, server.Config{})
		urls = append(urls, ts.URL)
	}
	_, coordTS, coordStore := startCoordinator(t, urls, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)
	st, err := cl.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCompleted || final.Failed != 0 {
		t.Fatalf("cluster sweep: state=%s failed=%d error=%q", final.State, final.Failed, final.Error)
	}
	if final.Completed != 4 {
		t.Fatalf("completed %d cells, want 4", final.Completed)
	}

	// Same sweep on an isolated single-node daemon.
	soloTS, _ := startWorker(t, server.Config{})
	solo := fastDial(soloTS.URL)
	sst, err := solo.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	sfinal, err := solo.WaitSweep(ctx, sst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sfinal.State != api.StateCompleted {
		t.Fatalf("solo sweep: %s (%s)", sfinal.State, sfinal.Error)
	}

	// Every cell: same content address, byte-identical stored value.
	soloByKey := make(map[string]api.CellStatus)
	for _, cs := range sfinal.Cells {
		soloByKey[cs.Bench+cs.Technique] = cs
	}
	for _, cs := range final.Cells {
		scs, ok := soloByKey[cs.Bench+cs.Technique]
		if !ok {
			t.Fatalf("solo sweep missing cell %s/%s", cs.Bench, cs.Technique)
		}
		if cs.Hash == "" || cs.Hash != scs.Hash {
			t.Fatalf("cell %s/%s hash mismatch: cluster %q vs solo %q", cs.Bench, cs.Technique, cs.Hash, scs.Hash)
		}
		crec, err := cl.Cell(ctx, cs.Hash)
		if err != nil {
			t.Fatalf("coordinator cell fetch: %v", err)
		}
		srec, err := solo.Cell(ctx, scs.Hash)
		if err != nil {
			t.Fatalf("solo cell fetch: %v", err)
		}
		if !bytes.Equal(crec.Value, srec.Value) {
			t.Errorf("cell %s/%s: cluster and solo values differ", cs.Bench, cs.Technique)
		}
		// And the acked value is durably in the coordinator's own store.
		if _, ok, err := coordStore.Get(cs.Hash); err != nil || !ok {
			t.Errorf("cell %s not in coordinator store (ok=%v err=%v)", cs.Hash[:12], ok, err)
		}
	}

	// Resubmitting the identical sweep resolves entirely from the
	// coordinator store: no dispatch, no execution.
	st2, err := cl.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	final2, err := cl.WaitSweep(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.StoreHits != 4 || final2.Executed != 0 {
		t.Errorf("resubmit: store_hits=%d executed=%d, want 4/0", final2.StoreHits, final2.Executed)
	}
}

// killController elects the first worker that accepts a sweep submission
// as the victim: that worker serves the submission (its shard is in
// flight), then every subsequent connection to it aborts — the in-process
// stand-in for kill -9 mid-sweep. Electing by first-submission rather than
// by placement order keeps the test deterministic in the presence of work
// stealing (an idle runner may grab a shard before its first choice does).
type killController struct {
	mu     sync.Mutex
	victim string
}

type killableHandler struct {
	h    http.Handler
	addr string
	ctl  *killController
}

func (k *killableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.ctl.mu.Lock()
	if k.ctl.victim == k.addr {
		k.ctl.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
	if r.Method == http.MethodPost && k.ctl.victim == "" {
		k.ctl.victim = k.addr // serve this one, then go dark
	}
	k.ctl.mu.Unlock()
	k.h.ServeHTTP(w, r)
}

func (c *killController) chosen() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.victim
}

// TestClusterWorkerDeath: a worker that dies mid-sweep (accepts its shard,
// then drops every connection) must not cost the sweep anything — its
// cells re-shard onto the survivors and the sweep completes with zero
// failures.
func TestClusterWorkerDeath(t *testing.T) {
	ctl := &killController{}
	var urls []string
	for i := 0; i < 3; i++ {
		st := openStore(t, t.TempDir())
		srv, err := server.New(server.Config{
			Store: st, Workers: 2,
			DefaultInstructions: testInstr, DefaultWarmup: testWarmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		kh := &killableHandler{h: srv.Handler(), ctl: ctl}
		ts := httptest.NewServer(kh)
		kh.addr = ts.URL
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
	}
	coord, coordTS, coordStore := startCoordinator(t, urls, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)
	st, err := cl.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCompleted {
		t.Fatalf("sweep after worker death: state=%s error=%q degraded=%q",
			final.State, final.Error, final.Degraded)
	}
	if final.Failed != 0 || final.Completed != 4 {
		t.Fatalf("acked-cell loss: completed=%d failed=%d degraded=%q",
			final.Completed, final.Failed, final.Degraded)
	}
	for _, cs := range final.Cells {
		if cs.State != "done" {
			t.Errorf("cell %s/%s ended %s: %s", cs.Bench, cs.Technique, cs.State, cs.Error)
		}
		if _, ok, _ := coordStore.Get(cs.Hash); !ok {
			t.Errorf("cell %s missing from coordinator store after re-shard", cs.Hash[:12])
		}
	}
	// The victim accepted its shard, went dark, and the coordinator must
	// have declared it dead and re-sharded.
	victim := ctl.chosen()
	if victim == "" {
		t.Fatal("no worker ever received a shard; death path not exercised")
	}
	if w := coord.workers[victim]; w == nil || !w.isDead() {
		t.Errorf("victim %s not marked dead after dropping connections", victim)
	}
}

// TestClusterFederation: a cell computed through the cluster becomes a
// store hit on a *different*, fresh worker whose Peer points at the
// coordinator — the federated read path end to end.
func TestClusterFederation(t *testing.T) {
	workerTS, _ := startWorker(t, server.Config{})
	_, coordTS, _ := startCoordinator(t, []string{workerTS.URL}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)

	req := api.SweepRequest{
		Instructions: testInstr,
		Warmup:       testWarmup,
		Cells:        []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}},
	}
	st, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCompleted || final.Failed != 0 {
		t.Fatalf("seed sweep: %s (%s)", final.State, final.Error)
	}
	hash := final.Cells[0].Hash

	// Fresh worker, empty store, federating through the coordinator.
	freshStore := openStore(t, t.TempDir())
	freshTS, _ := startWorker(t, server.Config{
		Store: freshStore,
		Peer:  fastDial(coordTS.URL),
	})
	fresh := fastDial(freshTS.URL)
	fst, err := fresh.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ffinal, err := fresh.WaitSweep(ctx, fst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ffinal.State != api.StateCompleted {
		t.Fatalf("federated sweep: %s (%s)", ffinal.State, ffinal.Error)
	}
	if ffinal.Executed != 0 || ffinal.StoreHits != 1 {
		t.Errorf("federation miss: executed=%d store_hits=%d, want 0/1", ffinal.Executed, ffinal.StoreHits)
	}
	// The peer hit was persisted locally: next time it is a purely local hit.
	if _, ok, err := freshStore.Get(hash); err != nil || !ok {
		t.Errorf("federated hit not persisted to local store (ok=%v err=%v)", ok, err)
	}
}

// TestCoordinatorAliasing: identical in-flight requests alias to one
// sweep, the same idempotency contract the single-node daemon gives.
func TestCoordinatorAliasing(t *testing.T) {
	ts, _ := startWorker(t, server.Config{})
	_, coordTS, _ := startCoordinator(t, []string{ts.URL}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)
	a, err := cl.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !api.Terminal(a.State) && a.ID != b.ID {
		t.Errorf("identical in-flight requests got distinct sweeps %s and %s", a.ID, b.ID)
	}
	if _, err := cl.WaitSweep(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
}

// holdWorker starts a worker whose sweep submissions wait until release
// is called (or the caller gives up), so a coordinator's executor slot
// stays busy for exactly as long as a test needs.
func holdWorker(t *testing.T) (url string, release func()) {
	t.Helper()
	srv, err := server.New(server.Config{
		Store: openStore(t, t.TempDir()), Workers: 2,
		DefaultInstructions: testInstr, DefaultWarmup: testWarmup,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		release()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts.URL, release
}

// submitCell submits a one-cell sweep (gzip, drowsy at interval iv).
func submitCell(ctx context.Context, t *testing.T, cl *api.Client, iv uint64, priority string) api.SweepStatus {
	t.Helper()
	st, err := cl.SubmitSweep(ctx, api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup, Priority: priority,
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: iv}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a sweep until it reaches state.
func waitState(ctx context.Context, t *testing.T, cl *api.Client, id, state string) {
	t.Helper()
	for {
		st, err := cl.Sweep(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		if api.Terminal(st.State) {
			t.Fatalf("sweep %s ended %s while waiting for %s", id, st.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitEvicted polls a sweep until the retention janitor has dropped it.
func waitEvicted(ctx context.Context, t *testing.T, cl *api.Client, id string) {
	t.Helper()
	for {
		_, err := cl.Sweep(ctx, id)
		var se *api.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("sweep %s never evicted", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorCountsRejections: a submit turned away with 429 (queue
// full) or 503 (draining) counts in server_sweeps_rejected_total, exactly
// as on a single-node daemon, so one dashboard reads both roles.
func TestCoordinatorCountsRejections(t *testing.T) {
	url, _ := holdWorker(t)
	coord, coordTS, _ := startCoordinator(t, []string{url}, func(c *Config) {
		c.SweepConcurrency = 1
		c.QueueDepth = 1
	})
	body, err := json.Marshal(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	submit := func() int {
		t.Helper()
		resp, err := http.Post(coordTS.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	rejected := func() uint64 { return obs.Default.Snapshot().Counter(obs.MetricSweepsRejected) }
	before := rejected()

	// Fill the queue through real admission: one bulk sweep holds the only
	// executor slot (its worker never answers), another fills the one-deep
	// bulk queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := fastDial(coordTS.URL)
	running := submitCell(ctx, t, cl, 2048, "bulk")
	waitState(ctx, t, cl, running.ID, api.StateRunning)
	submitCell(ctx, t, cl, 8192, "bulk")
	code := submit()
	if code != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", code)
	}
	if got := rejected() - before; got != 1 {
		t.Fatalf("429 counted %d rejections, want 1", got)
	}

	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining coordinator answered %d, want 503", code)
	}
	if got := rejected() - before; got != 2 {
		t.Fatalf("429+503 counted %d rejections, want 2", got)
	}
}

// TestCoordinatorPriority: with one sweep slot, an interactive sweep
// submitted after a queued bulk sweep starts first — the dual-priority
// admission a daemon gives, on the coordinator.
func TestCoordinatorPriority(t *testing.T) {
	url, release := holdWorker(t)
	_, coordTS, _ := startCoordinator(t, []string{url}, func(c *Config) { c.SweepConcurrency = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)

	first := submitCell(ctx, t, cl, 2048, "bulk")
	waitState(ctx, t, cl, first.ID, api.StateRunning) // holds the only slot
	bulk := submitCell(ctx, t, cl, 4096, "bulk")
	inter := submitCell(ctx, t, cl, 8192, "interactive")
	release()

	interDone, err := cl.WaitSweep(ctx, inter.ID)
	if err != nil {
		t.Fatal(err)
	}
	bulkDone, err := cl.WaitSweep(ctx, bulk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if interDone.State != api.StateCompleted || bulkDone.State != api.StateCompleted {
		t.Fatalf("states: interactive=%s bulk=%s", interDone.State, bulkDone.State)
	}
	if interDone.Started == nil || bulkDone.Started == nil {
		t.Fatal("missing start times")
	}
	if interDone.Started.After(*bulkDone.Started) {
		t.Errorf("interactive started %v, after bulk %v", interDone.Started, bulkDone.Started)
	}
}

// TestCoordinatorMetrics: a sweep the coordinator answers moves the same
// server_* family a daemon's does, and Shutdown leaves no goroutine
// behind — the check TestDrainAndResume makes for the daemon.
func TestCoordinatorMetrics(t *testing.T) {
	workerTS, _ := startWorker(t, server.Config{})
	baseline := runtime.NumGoroutine()
	coord, coordTS, _ := startCoordinator(t, []string{workerTS.URL}, func(c *Config) {
		c.Retention = 5 * time.Millisecond // the janitor ticks at its 1s floor
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)
	req := testSweep()
	req.Cells = req.Cells[:2]

	// Seed the coordinator store, and let the janitor evict the seed sweep
	// before the counters are read.
	seed, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.WaitSweep(ctx, seed.ID); err != nil || final.State != api.StateCompleted {
		t.Fatalf("seed sweep: %+v %v", final, err)
	}
	waitEvicted(ctx, t, cl, seed.ID)

	counter := func(name string) uint64 { return obs.Default.Snapshot().Counter(name) }
	inflight := obs.Default.Gauge(obs.GaugeSweepsInFlight)
	depth := obs.Default.Gauge(obs.GaugeQueueDepth)
	names := []string{obs.MetricSweepsAccepted, obs.MetricSweepsCompleted, obs.MetricSweepsEvicted, obs.MetricClusterShards}
	before := make(map[string]uint64)
	for _, n := range names {
		before[n] = counter(n)
	}
	inflight0, depth0 := inflight.Value(), depth.Value()

	// The resubmit is answered from the coordinator store in full: nothing
	// is dispatched, so every counter that moves is the coordinator's.
	again, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCompleted || final.StoreHits != 2 || final.Executed != 0 {
		t.Fatalf("resubmit: state=%s store_hits=%d executed=%d, want completed/2/0",
			final.State, final.StoreHits, final.Executed)
	}
	for n, want := range map[string]uint64{
		obs.MetricSweepsAccepted: 1, obs.MetricSweepsCompleted: 1, obs.MetricClusterShards: 0,
	} {
		if got := counter(n) - before[n]; got != want {
			t.Errorf("%s moved by %d, want %d", n, got, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (inflight.Value() != inflight0 || depth.Value() != depth0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if inflight.Value() != inflight0 || depth.Value() != depth0 {
		t.Errorf("gauges inflight=%d queue_depth=%d, want baselines %d/%d",
			inflight.Value(), depth.Value(), inflight0, depth0)
	}
	waitEvicted(ctx, t, cl, again.ID)
	if got := counter(obs.MetricSweepsEvicted) - before[obs.MetricSweepsEvicted]; got != 1 {
		t.Errorf("%s moved by %d, want 1", obs.MetricSweepsEvicted, got)
	}

	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	coordTS.Close()
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked across coordinator shutdown: %d -> %d\n%s",
			baseline, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestClusterRefusedShard: a worker that refuses its shard with a 4xx
// (here, more cells than its MaxCells) is alive, so nothing re-shards and
// it stays live; the shard's cells fail with the worker's message
// instead of staying pending in a sweep reported completed. With every
// cell failed, the sweep itself fails.
func TestClusterRefusedShard(t *testing.T) {
	ts, _ := startWorker(t, server.Config{MaxCells: 1})
	coord, coordTS, _ := startCoordinator(t, []string{ts.URL}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cl := fastDial(coordTS.URL)
	req := testSweep()
	req.Cells = req.Cells[:2] // one (gzip, L2) group of two cells

	st, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed || final.Failed != 2 || final.Completed != 0 {
		t.Fatalf("refused shard: state=%s completed=%d failed=%d, want failed/0/2 (%s)",
			final.State, final.Completed, final.Failed, final.Error)
	}
	for _, cs := range final.Cells {
		if cs.State != "failed" || !strings.Contains(cs.Error, "limit is 1") {
			t.Errorf("cell %s/%s: %s %q, want failed with the worker's message", cs.Bench, cs.Technique, cs.State, cs.Error)
		}
	}
	if coord.workers[ts.URL].isDead() {
		t.Error("a worker that answered 4xx was declared dead")
	}
}

// TestShutdownWithOpenShardStream bounds the teardown while a shard's
// event stream is open on its worker: an open SSE response is an active
// request, which httptest.Server.Close waits for. The coordinator's
// Shutdown must end that stream, so every call returns promptly and no
// goroutine outlives the servers.
func TestShutdownWithOpenShardStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	wsrv, err := server.New(server.Config{Store: openStore(t, t.TempDir()), Workers: 2,
		DefaultInstructions: testInstr, DefaultWarmup: testWarmup})
	if err != nil {
		t.Fatal(err)
	}
	streaming := make(chan struct{})
	var once sync.Once
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			once.Do(func() { close(streaming) })
		}
		wsrv.Handler().ServeHTTP(w, r)
	}))
	coord, err := New(Config{Workers: []string{wts.URL}, Store: openStore(t, t.TempDir()),
		DefaultInstructions: testInstr, DefaultWarmup: testWarmup, Dial: fastDial})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := fastDial(cts.URL)
	// One (gzip, L2) group of four lanes at a budget no worker finishes
	// before the shutdown below lands.
	req := api.SweepRequest{Instructions: 400_000, Warmup: 100_000}
	for _, iv := range []uint64{2048, 4096, 8192, 16384} {
		req.Cells = append(req.Cells, api.Cell{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: iv})
	}
	sub, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-streaming:
	case <-ctx.Done():
		t.Fatal("the coordinator never opened the shard's event stream")
	}

	within := func(name string, f func()) {
		t.Helper()
		done := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("%s still blocked after 5s\n%s", name, buf[:runtime.Stack(buf, true)])
		}
		t.Logf("%s returned in %v", name, time.Since(start))
	}
	within("coordinator Shutdown", func() {
		if err := coord.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	if st, err := cl.Sweep(ctx, sub.ID); err != nil || st.State != api.StateCanceled {
		t.Errorf("sweep after shutdown: %+v %v, want canceled mid-shard", st.State, err)
	}
	within("worker Shutdown", func() {
		if err := wsrv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	within("coordinator Close", cts.Close)
	within("worker Close", wts.Close)

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked across shutdown: %d -> %d\n%s",
			baseline, n, buf[:runtime.Stack(buf, true)])
	}
}
