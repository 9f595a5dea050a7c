package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// testBudget keeps daemon tests fast: ~80K instructions per cell.
const (
	testInstr  = 60_000
	testWarmup = 20_000
)

func testConfig(t *testing.T, st *store.Store) Config {
	t.Helper()
	return Config{
		Store:               st,
		Workers:             2,
		QueueDepth:          4,
		SweepConcurrency:    1,
		DefaultInstructions: testInstr,
		DefaultWarmup:       testWarmup,
		RetryAfter:          1 * time.Second,
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func twoCellRequest() api.SweepRequest {
	return api.SweepRequest{
		Instructions: testInstr,
		Warmup:       testWarmup,
		Cells: []api.Cell{
			{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
			{Bench: "gzip", L2: 11, Technique: "gated-vss", Interval: 4096},
		},
	}
}

// TestDaemonLifecycle drives the full API surface: submit, poll, SSE
// events, cell fetch — then resubmits the identical sweep and requires it
// to be answered entirely from the store, bit-identically.
func TestDaemonLifecycle(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Cold: both cells simulate.
	sub, err := cl.SubmitSweep(ctx, twoCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != api.StateQueued && sub.State != api.StateRunning {
		t.Fatalf("submit state = %q", sub.State)
	}
	cold, err := cl.WaitSweep(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != api.StateCompleted {
		t.Fatalf("cold sweep ended %q (%s)", cold.State, cold.Error)
	}
	if cold.Executed != 2 || cold.StoreHits != 0 || cold.Failed != 0 {
		t.Fatalf("cold: executed=%d storeHits=%d failed=%d, want 2/0/0",
			cold.Executed, cold.StoreHits, cold.Failed)
	}
	coldVals := make(map[string][]byte)
	for _, cs := range cold.Cells {
		if cs.State != "done" || cs.Hash == "" {
			t.Fatalf("cold cell %+v not done", cs)
		}
		rec, err := cl.Cell(ctx, cs.Hash)
		if err != nil {
			t.Fatal(err)
		}
		coldVals[cs.Hash] = rec.Value
	}

	// The SSE stream replays the harness trace for a finished sweep.
	resp, err := http.Get(hts.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type = %q", ct)
	}
	for _, want := range []string{"event: sweep_start", "event: run_done", "event: sweep_completed"} {
		if !strings.Contains(string(events), want) {
			t.Errorf("SSE stream missing %q:\n%s", want, events)
		}
	}

	// Warm resubmit: zero simulation, 100% store hits, identical bytes.
	resub, err := cl.SubmitSweep(ctx, twoCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resub.ID == sub.ID {
		t.Fatalf("terminal sweep was aliased instead of re-run")
	}
	warm, err := cl.WaitSweep(ctx, resub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != api.StateCompleted || warm.Executed != 0 || warm.StoreHits != 2 {
		t.Fatalf("warm: state=%s executed=%d storeHits=%d, want completed/0/2",
			warm.State, warm.Executed, warm.StoreHits)
	}
	for _, cs := range warm.Cells {
		rec, err := cl.Cell(ctx, cs.Hash)
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Value) != string(coldVals[cs.Hash]) {
			t.Errorf("cell %s not byte-identical across warm resubmit", cs.Hash)
		}
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.StoreCells != 2 || h.Draining {
		t.Errorf("health = %+v, want 2 store cells, not draining", h)
	}

	// Unknown routes and cells.
	if _, err := cl.Cell(ctx, "not-a-hash"); err == nil {
		t.Error("fetching a bogus cell succeeded")
	}
	if _, err := cl.Sweep(ctx, "s-999999"); err == nil {
		t.Error("fetching a bogus sweep succeeded")
	}
}

// TestAdmissionAndPriority uses a paused daemon (no executors) so the
// queues fill deterministically: overflow is a 429 with Retry-After, an
// identical queued request aliases onto the existing sweep, and once the
// executors start, the interactive sweep overtakes the earlier bulk one.
func TestAdmissionAndPriority(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	cfg := testConfig(t, st)
	cfg.QueueDepth = 1
	s := newServer(cfg)
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	bulkReq := api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup, Priority: "bulk",
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}},
	}
	bulk, err := cl.SubmitSweep(ctx, bulkReq)
	if err != nil {
		t.Fatal(err)
	}

	// Queue depth 1: a second, different bulk sweep must be rejected.
	other := bulkReq
	other.Cells = []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 8192}}
	rejCtx, rejCancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err = cl.SubmitSweep(rejCtx, other)
	rejCancel()
	if err == nil || rejCtx.Err() == nil {
		// SubmitSweep retries 429s until its context expires, so the only
		// acceptable outcome here is a deadline hit after >=1 rejection.
		t.Fatalf("overflow submit: err=%v", err)
	}
	// Confirm the rejection itself (single shot, no retry).
	resp, err := http.Post(hts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"priority":"bulk","cells":[{"bench":"gzip","l2_latency":11,"technique":"rbb","interval":1024}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After")
	}

	// Identical request while queued: aliased, not re-queued.
	alias, err := cl.SubmitSweep(ctx, bulkReq)
	if err != nil {
		t.Fatal(err)
	}
	if alias.ID != bulk.ID {
		t.Errorf("identical queued request got a new sweep %s (want %s)", alias.ID, bulk.ID)
	}

	// Interactive queue is separate and has room.
	inter, err := cl.SubmitSweep(ctx, api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup, Priority: "interactive",
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "gated-vss", Interval: 4096}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Start the single executor: interactive must run first even though
	// the bulk sweep was queued earlier.
	s.startExecutors()
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

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestDaemonHeapFlatAcrossBudgets pins that the daemon keeps nothing per
// instruction budget once a sweep is done: clients choose the budget, so
// anything cached per (benchmark, budget) grows the heap without bound.
// Twelve one-cell sweeps at distinct budgets must leave the live heap
// within 8 MiB of where it started.
func TestDaemonHeapFlatAcrossBudgets(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 12; i++ {
		sub, err := cl.SubmitSweep(ctx, api.SweepRequest{
			Instructions: 200_000 + uint64(i)*1_000,
			Warmup:       testWarmup,
			Cells:        []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}},
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := cl.WaitSweep(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != api.StateCompleted || v.Executed != 1 {
			t.Fatalf("sweep %d: state=%s executed=%d (%s), want completed/1", i, v.State, v.Executed, v.Error)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %.2f MiB", float64(grew)/(1<<20))
	if grew > 8<<20 {
		t.Errorf("twelve one-cell sweeps grew the live heap by %.1f MiB, want at most 8", float64(grew)/(1<<20))
	}
}

// TestDaemonFrontAllocIndependentOfBudget pins that a sweep's shared batch
// front costs the same at any budget: clients choose the budget, and a
// front that held the whole run cost 56 MB per million instructions per
// batch worker. One two-cell sweep (one lockstep group) at 2M
// instructions must allocate at most 32 MiB in all.
func TestDaemonFrontAllocIndependentOfBudget(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := twoCellRequest()
	req.Instructions = 2_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.WaitSweep(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if v.State != api.StateCompleted || v.Executed != 2 {
		t.Fatalf("sweep: state=%s executed=%d (%s), want completed/2", v.State, v.Executed, v.Error)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MiB", float64(alloc)/(1<<20))
	if alloc > 32<<20 {
		t.Errorf("a two-cell sweep at 2M instructions allocated %.1f MiB, want at most 32", float64(alloc)/(1<<20))
	}
}

// TestRemoteRunCells exercises the sim.RemoteRunner implementation: the
// client ships cells to the daemon and reassembles results locally.
func TestRemoteRunCells(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := twoCellRequest()
	simSpecs := make([]sim.CellSpec, 0, len(req.Cells))
	for _, c := range req.Cells {
		sp, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		simSpecs = append(simSpecs, sp)
	}
	out, err := cl.RunCells(ctx, testInstr, testWarmup, simSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	for i, rc := range out {
		if rc.Err != "" {
			t.Fatalf("cell %d failed remotely: %s", i, rc.Err)
		}
		if rc.Result.CPU.Instructions == 0 {
			t.Errorf("cell %d came back empty", i)
		}
	}
}

// TestDrainAndResume submits a sweep wide enough to still be in flight
// when SIGTERM-equivalent Shutdown lands, verifies the drain is clean (no
// leaked goroutines), then "restarts" the daemon on a fresh store handle
// and requires the resubmitted sweep to simulate only what the first
// process didn't finish.
func TestDrainAndResume(t *testing.T) {
	dir := t.TempDir()
	baseline := runtime.NumGoroutine()

	st := openStore(t, dir)
	cfg := testConfig(t, st)
	cfg.Workers = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 2 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	benches := make([]string, 0, 4)
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
	sub, err := cl.SubmitSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	total := sub.Total
	if total != 16 {
		t.Fatalf("expanded to %d cells, want 16", total)
	}

	// Wait for partial progress, then drain.
	for {
		stt, err := cl.Sweep(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if stt.Completed >= 2 {
			break
		}
		if api.Terminal(stt.State) {
			t.Fatalf("sweep finished (%s) before the drain could land; lower the budget", stt.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	scancel()

	final, err := cl.Sweep(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCanceled && final.State != api.StateCompleted {
		t.Fatalf("post-drain state = %s", final.State)
	}
	doneFirst := 0
	for _, cs := range final.Cells {
		if cs.State == "done" {
			doneFirst++
		}
	}
	if final.State == api.StateCanceled && doneFirst == 0 {
		t.Fatal("drain kept no completed cells")
	}
	// Submissions during/after drain are refused.
	resp, err := http.Post(hts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"cells":[{"bench":"gzip","l2_latency":11,"technique":"drowsy","interval":4096}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	hts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The drain must not leak goroutines: allow the runtime a moment to
	// reap the HTTP and executor goroutines, then compare to baseline.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked across drain: %d -> %d\n%s",
			baseline, n, buf[:runtime.Stack(buf, true)])
	}

	// "Restart": fresh store handle over the same directory. The second
	// run of the identical request must not re-simulate finished cells.
	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, err := New(testConfig(t, st2))
	if err != nil {
		t.Fatal(err)
	}
	hts2 := httptest.NewServer(srv2.Handler())
	defer hts2.Close()
	defer func() {
		c, cc := context.WithTimeout(context.Background(), 10*time.Second)
		defer cc()
		_ = srv2.Shutdown(c)
	}()
	cl2 := api.NewClient(hts2.URL)
	cl2.PollInterval = 5 * time.Millisecond
	sub2, err := cl2.SubmitSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl2.WaitSweep(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != api.StateCompleted || res.Failed != 0 {
		t.Fatalf("resumed sweep: state=%s failed=%d (%s)", res.State, res.Failed, res.Error)
	}
	if res.Executed+res.StoreHits != total {
		t.Fatalf("resumed accounting: executed=%d hits=%d, want sum %d",
			res.Executed, res.StoreHits, total)
	}
	if res.StoreHits < doneFirst {
		t.Errorf("restart re-simulated finished work: %d finished before drain, only %d reused",
			doneFirst, res.StoreHits)
	}
	if res.Executed >= total {
		t.Errorf("restart simulated all %d cells from scratch", total)
	}
}

// Request expansion/validation tests live with the code in
// internal/server/api (TestExpandCells in protocol_test.go).
