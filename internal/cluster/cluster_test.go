package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
// by ring position keeps the test deterministic in the presence of work
// stealing (an idle runner may grab a shard before its ring owner does).
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

// TestCoordinatorCountsRejections: a submit turned away with 429 (queue
// full) or 503 (draining) counts in server_sweeps_rejected_total, exactly
// as on a single-node daemon, so one dashboard reads both roles.
func TestCoordinatorCountsRejections(t *testing.T) {
	ts, _ := startWorker(t, server.Config{})
	coord, coordTS, _ := startCoordinator(t, []string{ts.URL}, nil)
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

	coord.mu.Lock()
	coord.inflight = coord.cfg.QueueDepth
	coord.mu.Unlock()
	code := submit()
	coord.mu.Lock()
	coord.inflight = 0
	coord.mu.Unlock()
	if code != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", code)
	}
	if got := rejected() - before; got != 1 {
		t.Fatalf("429 counted %d rejections, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
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
