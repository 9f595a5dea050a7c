package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hotleakage/internal/cluster"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// clusterInstance runs cluster-mixed: a coordinator and its workers, each
// served over httptest, driven through api.Client. One operation is one
// sweep: submit, wait on the event stream, read the status once and fetch
// every cell.
type clusterInstance struct {
	r             *run
	instr, warmup uint64

	client  *api.Client
	front   *httptest.Server // the coordinator's listener, the client's front door
	coord   *cluster.Coordinator
	workers []*server.Server
	backs   []*httptest.Server // the workers' listeners
	store   *store.Store       // the coordinator's store
	stores  []*store.Store     // every store, closed on close
	dir     string

	// The universe the set-up stores, which sweeps draw from.
	benches []string
	energy  []sim.CellSpec

	mu        sync.Mutex
	lastFresh []sim.CellSpec // the latest sweep's never-seen cells
}

func newClient(url string, tr *tracer) *api.Client {
	c := api.NewClient(url)
	if tr != nil {
		c.HTTP = &http.Client{Transport: &spanTransport{base: http.DefaultTransport, tr: tr}}
	}
	return c
}

func (ci *clusterInstance) openStore(name string) (*store.Store, error) {
	st, err := store.Open(filepath.Join(ci.dir, name))
	if err != nil {
		return nil, err
	}
	ci.stores = append(ci.stores, st)
	return st, nil
}

// setupCluster starts the workers and a coordinator, each on its own
// store, and simulates the universe through the coordinator: every
// benchmark under none, drowsy and gated-Vss at one interval.
func setupCluster(ctx context.Context, r *run) (inst instance, err error) {
	ci := &clusterInstance{r: r, instr: r.s.ServeInstructions, warmup: r.s.ServeWarmup}
	defer func() {
		if err != nil {
			err = errors.Join(err, ci.close())
		}
	}()
	if ci.dir, err = os.MkdirTemp(r.dir, "cluster-"); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < r.s.ClusterWorkers; i++ {
		st, err := ci.openStore(fmt.Sprintf("worker-%d", i))
		if err != nil {
			return nil, err
		}
		w, err := server.New(server.Config{Store: st, Workers: 1,
			DefaultInstructions: ci.instr, DefaultWarmup: ci.warmup})
		if err != nil {
			return nil, err
		}
		ci.workers = append(ci.workers, w)
		hs := httptest.NewServer(tracedHandler(w.Handler(), r.tr, "worker"))
		ci.backs = append(ci.backs, hs)
		urls = append(urls, hs.URL)
	}
	if ci.store, err = ci.openStore("coordinator"); err != nil {
		return nil, err
	}
	cfg := cluster.Config{Workers: urls, Store: ci.store, DefaultInstructions: ci.instr, DefaultWarmup: ci.warmup}
	if r.tr != nil {
		cfg.Dial = func(addr string) *api.Client {
			c := api.NewClient(addr)
			c.HTTP = &http.Client{Transport: &spanTransport{base: http.DefaultTransport, tr: r.tr, name: "dispatch"}}
			return c
		}
	}
	if ci.coord, err = cluster.New(cfg); err != nil {
		return nil, err
	}
	ci.front = httptest.NewServer(tracedHandler(ci.coord.Handler(), r.tr, "coord"))
	ci.client = newClient(ci.front.URL, r.tr)

	ci.benches = workload.Names()[:r.s.ClusterBenches]
	for _, b := range ci.benches {
		ci.energy = append(ci.energy,
			sim.CellSpec{Bench: b, L2: r.s.ServeL2, Technique: leakctl.TechNone},
			sim.CellSpec{Bench: b, L2: r.s.ServeL2, Technique: leakctl.TechDrowsy, Interval: r.s.ClusterInterval},
			sim.CellSpec{Bench: b, L2: r.s.ServeL2, Technique: leakctl.TechGated, Interval: r.s.ClusterInterval})
	}
	if err := ci.populate(ctx); err != nil {
		return nil, err
	}
	return ci, nil
}

// populate simulates the whole universe in one sweep and stores it.
func (ci *clusterInstance) populate(ctx context.Context) error {
	var cells []api.Cell
	for _, cs := range ci.energy {
		cells = append(cells, api.FromSpec(cs))
	}
	final, err := ci.sweep(ctx, cells)
	if err != nil {
		return fmt.Errorf("universe sweep: %w", err)
	}
	return expect(final, len(cells), 0, len(cells))
}

// expect checks a sweep's verdict and tallies.
func expect(st api.SweepStatus, cells, hits, executed int) error {
	if st.State != api.StateCompleted || st.Failed != 0 || st.StoreHits != hits ||
		st.Executed != executed || st.Completed != cells {
		return fmt.Errorf("sweep %s ended %s: %d of %d cells completed, %d failed, %d store hits, %d executed; want all completed with %d hits and %d executed (%s)",
			st.ID, st.State, st.Completed, cells, st.Failed, st.StoreHits, st.Executed, hits, executed, st.Error)
	}
	return nil
}

// freshInterval is operation n's never-seen decay interval in [5000,
// 25000): distinct for the first 20000 operations of a run (the stride is
// coprime with the range), offset by the seed, never the universe's
// interval, and spread over the whole range within every run so no seed's
// sweeps simulate cheaper intervals than another's.
func freshInterval(seed uint64, n int) uint64 {
	return 5000 + (seed*104_729+uint64(n)*7919)%20000
}

// sweepCells draws operation n's cells: stored cells plus one benchmark
// under drowsy and gated-Vss at a fresh interval, which must be simulated.
// The fresh benchmark rotates from a seeded start, so every run simulates
// the same mix of benchmarks.
func (ci *clusterInstance) sweepCells(n int) (cells []api.Cell, fresh []sim.CellSpec) {
	rng := ci.r.rng(streamOps + uint64(n))
	for _, cs := range sample(rng, ci.energy, ci.r.s.ClusterWarm) {
		cells = append(cells, api.FromSpec(cs))
	}
	bench := ci.benches[(int(ci.r.seed%uint64(len(ci.benches)))+n)%len(ci.benches)]
	iv := freshInterval(ci.r.seed, n)
	for _, t := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
		cs := sim.CellSpec{Bench: bench, L2: ci.r.s.ServeL2, Technique: t, Interval: iv}
		fresh = append(fresh, cs)
		cells = append(cells, api.FromSpec(cs))
	}
	return cells, fresh
}

func (ci *clusterInstance) op(ctx context.Context, n int) (string, error) {
	cells, fresh := ci.sweepCells(n)
	final, err := ci.sweep(ctx, cells)
	if err != nil {
		return final.ID, err
	}
	if err := expect(final, len(cells), len(cells)-len(fresh), len(fresh)); err != nil {
		return final.ID, err
	}
	parent, tr := spanFrom(ctx), ci.r.tr
	for _, cs := range final.Cells {
		if cs.State != "done" || cs.Hash == "" {
			return final.ID, fmt.Errorf("sweep %s: cell %+v is %s", final.ID, cs.Cell, cs.State)
		}
		id, st := tr.begin()
		rec, err := ci.client.Cell(withSpan(ctx, id), cs.Hash)
		tr.end(id, parent, "http.cell", final.ID, st)
		if err != nil {
			return final.ID, err
		}
		if rec.Hash != cs.Hash || len(rec.Value) == 0 {
			return final.ID, fmt.Errorf("cell %s: got record %q with %d value bytes", cs.Hash, rec.Hash, len(rec.Value))
		}
	}
	ci.mu.Lock()
	ci.lastFresh = fresh
	ci.mu.Unlock()
	return final.ID, nil
}

// sweep submits cells, waits on the sweep's event stream and reads its
// final status, recording a span per client call.
func (ci *clusterInstance) sweep(ctx context.Context, cells []api.Cell) (api.SweepStatus, error) {
	parent, tr := spanFrom(ctx), ci.r.tr
	req := api.SweepRequest{Instructions: ci.instr, Warmup: ci.warmup, Cells: cells}
	id, st := tr.begin()
	sub, err := ci.client.SubmitSweep(withSpan(ctx, id), req)
	tr.end(id, parent, "http.submit", sub.ID, st)
	if err != nil {
		return sub, fmt.Errorf("submit: %w", err)
	}
	var events int
	var doneAt time.Time
	id, st = tr.begin()
	err = ci.client.StreamEvents(withSpan(ctx, id), sub.ID, func(rec obs.Record) {
		events++
		if strings.HasPrefix(rec.Type, "sweep_") && rec.Type != "sweep_start" {
			doneAt = time.Now()
		}
	})
	tr.end(id, parent, "http.events", sub.ID, st)
	if err != nil {
		return sub, fmt.Errorf("events: %w", err)
	}
	id, st = tr.begin()
	final, err := ci.client.Sweep(withSpan(ctx, id), sub.ID)
	tr.end(id, parent, "http.status", sub.ID, st)
	if err == nil && !api.Terminal(final.State) {
		// The event stream is best effort; the status is authoritative.
		id, st = tr.begin()
		final, err = ci.client.WaitSweep(withSpan(ctx, id), sub.ID)
		tr.end(id, parent, "http.status", sub.ID, st)
	}
	if err != nil {
		return sub, fmt.Errorf("status: %w", err)
	}
	if ci.r.det != nil && final.Started != nil && final.Finished != nil {
		ci.r.det.add("server.queue_wait_ms", ms(final.Started.Sub(final.Created)))
		ci.r.det.add("server.run_ms", ms(final.Finished.Sub(*final.Started)))
		ci.r.det.add("stream.events", float64(events))
		if !doneAt.IsZero() {
			ci.r.det.add("stream.done_lag_ms", ms(doneAt.Sub(*final.Finished)))
		}
	}
	return final, nil
}

// check recomputes a seeded sample of the stored universe plus the latest
// sweep's freshly simulated and stored cells, each fetched by content
// address through the coordinator.
func (ci *clusterInstance) check(ctx context.Context, c *checker) {
	got := func(cs sim.CellSpec) (sim.RunResult, error) {
		var res sim.RunResult
		h, err := sim.CellHash(machine(cs.L2, ci.instr, ci.warmup), cs.Bench, cs.Technique, cs.Interval)
		if err != nil {
			return res, err
		}
		rec, err := ci.client.Cell(ctx, h)
		if err != nil {
			return res, err
		}
		return res, json.Unmarshal(rec.Value, &res)
	}
	prof := func(name string) workload.Profile {
		p, _ := workload.ByName(name)
		return p
	}
	ci.mu.Lock()
	fresh := ci.lastFresh
	ci.mu.Unlock()
	if len(fresh) == 0 {
		c.fail("no sweep completed, no fresh cells to check")
	}
	stored := max(ci.r.s.CheckEnergy-len(fresh), 1)
	c.energy(ctx, sample(ci.r.rng(streamCheck), ci.energy, stored), ci.instr, ci.warmup, prof, got, true)
	if len(fresh) > 0 {
		c.energy(ctx, fresh, ci.instr, ci.warmup, prof, got, false)
	}
}

func (ci *clusterInstance) inputs() layerInputs {
	var profs []workload.Profile
	for _, b := range ci.benches {
		p, _ := workload.ByName(b)
		profs = append(profs, p)
	}
	cells, _ := ci.sweepCells(0)
	return layerInputs{profiles: profs, cells: ci.energy,
		instr: ci.instr, warmup: ci.warmup,
		request:    api.SweepRequest{Instructions: ci.instr, Warmup: ci.warmup, Cells: cells},
		storeBytes: ci.store.Bytes()}
}

// calls counts the serving layers' calls per sweep from the request path:
// the coordinator hashes and looks up every cell, forwards the fresh ones
// to a worker (which hashes, misses, simulates, stores and serves them
// back) and stores each acknowledged cell again; the client fetches every
// cell once more.
func (ci *clusterInstance) calls(d deltas, ops int, det *details) layerCalls {
	lc := simCalls(d, ci.instr+ci.warmup)
	cells, fresh := float64(ci.r.s.ClusterWarm+2), 2.0
	lc.hashes = (cells + 2*fresh) * float64(ops)
	lc.gets = (2*cells + 2*fresh) * float64(ops)
	lc.puts = d.f("harness_runs_completed_total") + d.f(obs.MetricClusterCellsAcked)
	lc.expands = float64(ops) + d.f(obs.MetricClusterShards)
	// Each worker sub-sweep writes its start, a start and a done per cell,
	// and its end into the worker's hub.
	lc.hubWrites = sum(det.get("stream.events")) + d.f(obs.MetricClusterShards)*(2+2*fresh)
	return lc
}

func (ci *clusterInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if ci.coord != nil {
		errs = append(errs, ci.coord.Shutdown(ctx))
	}
	if ci.front != nil {
		ci.front.Close()
	}
	for _, w := range ci.workers {
		errs = append(errs, w.Shutdown(ctx))
	}
	for _, b := range ci.backs {
		b.Close()
	}
	for _, st := range ci.stores {
		errs = append(errs, st.Close())
	}
	if ci.dir != "" {
		errs = append(errs, os.RemoveAll(ci.dir))
	}
	return errors.Join(errs...)
}
