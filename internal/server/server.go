// Package server is leakd's core: an HTTP/JSON facade over the simulation
// harness with a content-addressed result store behind it. Sweeps are
// submitted as cell sets, admitted into a bounded dual-priority queue
// (interactive requests overtake bulk sweeps), executed on the existing
// harness worker pool with per-sweep checkpoints, and resolved through the
// store first so repeated or overlapping sweeps simulate only the delta.
// Progress streams out over SSE as the harness's own trace events.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/stream"

	"context"
)

var (
	obsQueueDepth      = obs.Default.Gauge(obs.GaugeQueueDepth)
	obsSweepsInFlight  = obs.Default.Gauge(obs.GaugeSweepsInFlight)
	obsSweepsAccepted  = obs.Default.Counter(obs.MetricSweepsAccepted)
	obsSweepsRejected  = obs.Default.Counter(obs.MetricSweepsRejected)
	obsSweepsCompleted = obs.Default.Counter(obs.MetricSweepsCompleted)
	obsSweepsDegraded  = obs.Default.Counter(obs.MetricSweepsDegraded)
	obsServerPanics    = obs.Default.Counter(obs.MetricServerPanics)
	obsWatchdogFired   = obs.Default.Counter(obs.MetricWatchdogTimeouts)
	obsSweepsEvicted   = obs.Default.Counter(obs.MetricSweepsEvicted)
)

// Config parameterizes a daemon. Store is required; everything else has a
// serviceable default.
type Config struct {
	// Store is the content-addressed result store backing the daemon.
	Store *store.Store
	// Workers sizes each sweep's harness pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth caps each priority class's wait queue (default 16);
	// submissions beyond it are rejected with 429 + Retry-After.
	QueueDepth int
	// SweepConcurrency is how many sweeps execute at once (default 1; the
	// harness pool already parallelizes within a sweep).
	SweepConcurrency int
	// MaxCells caps cells per sweep (default 4096); larger requests are 400s.
	MaxCells int
	// DefaultInstructions/DefaultWarmup fill zero-valued requests
	// (defaults 1M/300K, the reduced-scale paper budget).
	DefaultInstructions uint64
	DefaultWarmup       uint64
	// RunTimeout and MaxRetries pass through to the harness per run.
	RunTimeout time.Duration
	MaxRetries int
	// SweepTimeout is the watchdog: a sweep running longer than this is
	// canceled and marked failed (0 = no watchdog). The cancellation
	// propagates through the harness, so in-flight cells drain and
	// completed cells stay checkpointed and stored.
	SweepTimeout time.Duration
	// Plane, when non-nil, injects faults into request handling (the
	// server.handler site) and sweep execution (server.sweep) — chaos
	// testing only.
	Plane *faultinject.Plane
	// RetryAfter is the backoff hint attached to 429s (default 5s).
	RetryAfter time.Duration
	// Retention bounds how long terminal sweeps stay queryable: a sweep
	// is evicted from the in-memory maps this long after it finished
	// (0 = keep forever, the pre-retention behaviour). Without it the
	// sweeps/byHash maps grow without bound under sustained distinct
	// traffic. The content-addressed store is unaffected — evicted
	// results remain servable by /v1/cells/{hash}.
	Retention time.Duration
	// Peer, when non-nil, is the federated-store read path: a cell that
	// misses the local store is fetched from the peer (normally the
	// cluster coordinator) before being simulated, and a peer hit is
	// persisted locally. See sim.Experiments.Peer.
	Peer sim.CellFetcher
	// Events, when non-nil, additionally receives every sweep's trace
	// events (e.g. an obs.TraceWriter for on-disk telemetry).
	Events harness.EventSink
	// Log receives operational lines; nil discards them.
	Log *log.Logger
}

// Server is the daemon. Build with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	traces *sim.TraceCache
	mux    *http.ServeMux

	interactive chan *sweep
	bulk        chan *sweep

	rootCtx    context.Context
	rootCancel context.CancelFunc
	stop       chan struct{}
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int
	sweeps   map[string]*sweep
	byHash   map[string]*sweep // request hash -> most recent sweep
	// degraded holds deduplicated reasons the daemon is limping (store
	// trouble on otherwise-successful sweeps, isolated panics); /healthz
	// reports them under status "degraded".
	degraded []string
}

// sweep is one admitted request moving through queued -> running ->
// {completed, failed, canceled}.
type sweep struct {
	id           string
	reqHash      string
	priority     string
	cells        []sim.CellSpec
	attacks      []sim.AttackSpec
	wire         []api.Cell
	instructions uint64
	warmup       uint64
	ctx          context.Context
	cancel       context.CancelFunc
	hub          *stream.Hub

	mu       sync.Mutex
	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	exp      *sim.Experiments // live counters while running
	// results are the final cell statuses in wire order (energy cells,
	// then attack cells); nil until the ladder has answered.
	results []api.CellStatus
	errMsg  string
	// degradedMsg marks a sweep that completed with results intact but
	// with infrastructure trouble (store writes failing): the work is
	// done, just not all of it persisted for reuse.
	degradedMsg string
	// final tallies, captured before the Experiments is closed
	executed, storeHits, resumed int
}

// New builds a daemon over cfg and starts its executors. The caller mounts
// Handler() on an http.Server (obs.HardenedServer) and must eventually call
// Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Store.Dir(), "checkpoints"), 0o755); err != nil {
		return nil, fmt.Errorf("server: checkpoint dir: %w", err)
	}
	s := newServer(cfg)
	s.startExecutors()
	return s, nil
}

// withDefaults fills zero-valued knobs.
func withDefaults(cfg Config) Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SweepConcurrency <= 0 {
		cfg.SweepConcurrency = 1
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.DefaultInstructions == 0 {
		cfg.DefaultInstructions = 1_000_000
	}
	if cfg.DefaultWarmup == 0 {
		cfg.DefaultWarmup = 300_000
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.New(os.Stderr, "", 0)
		cfg.Log.SetOutput(discard{})
	}
	return cfg
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// newServer builds the daemon without starting executors; in-package tests
// use the paused form to exercise admission control deterministically.
func newServer(cfg Config) *Server {
	cfg = withDefaults(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		traces:      sim.NewTraceCache(""),
		interactive: make(chan *sweep, cfg.QueueDepth),
		bulk:        make(chan *sweep, cfg.QueueDepth),
		rootCtx:     ctx,
		rootCancel:  cancel,
		stop:        make(chan struct{}),
		sweeps:      make(map[string]*sweep),
		byHash:      make(map[string]*sweep),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cells/{hash}", s.handleCell)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WriteProm(w)
	})
	s.mux = mux
	return s
}

func (s *Server) startExecutors() {
	s.wg.Add(s.cfg.SweepConcurrency)
	for i := 0; i < s.cfg.SweepConcurrency; i++ {
		go s.executor()
	}
	if s.cfg.Retention > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
}

// janitor periodically evicts terminal sweeps older than the retention
// window so sustained distinct traffic cannot grow the sweep maps without
// bound. It stops with the executors on drain.
func (s *Server) janitor() {
	defer s.wg.Done()
	period := s.cfg.Retention / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired drops terminal sweeps that finished more than Retention
// ago from the lookup maps. The byHash alias entry goes with the sweep —
// but only if it still points at this sweep, so a newer identical request
// that re-aliased the hash is never evicted early. Non-terminal sweeps
// are never touched, which keeps in-flight aliasing correct right up to
// eviction. Returns how many sweeps were evicted.
func (s *Server) evictExpired(now time.Time) int {
	cutoff := now.Add(-s.cfg.Retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, sw := range s.sweeps {
		sw.mu.Lock()
		expired := api.Terminal(sw.state) && !sw.finished.IsZero() && sw.finished.Before(cutoff)
		sw.mu.Unlock()
		if !expired {
			continue
		}
		delete(s.sweeps, id)
		if s.byHash[sw.reqHash] == sw {
			delete(s.byHash, sw.reqHash)
		}
		n++
	}
	if n > 0 {
		obsSweepsEvicted.Add(uint64(n))
	}
	return n
}

// Handler returns the daemon's routes wrapped in per-request panic
// isolation (a handler panic 500s that request — counted and logged —
// instead of killing the daemon) and, when Config.Plane is set, the
// server.handler fault-injection site.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				obsServerPanics.Add(1)
				s.noteDegraded(fmt.Sprintf("handler panic (%s %s)", r.Method, r.URL.Path))
				s.cfg.Log.Printf("leakd: panic in %s %s (isolated): %v\n%s",
					r.Method, r.URL.Path, p, debug.Stack())
				// Best effort: if the handler already wrote headers this is
				// a no-op on the status line, but the connection still ends.
				httpError(w, http.StatusInternalServerError, "internal error (request isolated)")
			}
		}()
		if s.cfg.Plane != nil {
			d := s.cfg.Plane.Decide(faultinject.SiteServerHandler)
			switch d.Fault {
			case faultinject.OpSlow:
				time.Sleep(d.Delay)
			case faultinject.OpPanic:
				panic("faultinject: injected panic at " + faultinject.SiteServerHandler)
			case faultinject.Op5xx, faultinject.OpErr, faultinject.OpReset, faultinject.OpShort:
				httpError(w, http.StatusBadGateway, "injected fault")
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// executor pulls sweeps off the queues, interactive first: a ready
// interactive sweep always overtakes a waiting bulk one.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		var sw *sweep
		select {
		case sw = <-s.interactive:
		default:
			select {
			case <-s.stop:
				return
			case sw = <-s.interactive:
			case sw = <-s.bulk:
			}
		}
		obsQueueDepth.Add(-1)
		s.runIsolated(sw)
	}
}

// runIsolated executes one sweep with panic isolation: a panic escaping
// the harness (or injected by the chaos plane) fails that sweep, not the
// executor goroutine — the daemon keeps serving.
func (s *Server) runIsolated(sw *sweep) {
	defer func() {
		if p := recover(); p != nil {
			obsServerPanics.Add(1)
			s.noteDegraded("sweep executor panic")
			s.cfg.Log.Printf("leakd: panic in sweep %s (isolated): %v\n%s", sw.id, p, debug.Stack())
			s.finishUnrun(sw, api.StateFailed, fmt.Sprintf("sweep panicked: %v", p))
		}
	}()
	s.execute(sw)
}

// noteDegraded records a deduplicated degradation reason for /healthz.
func (s *Server) noteDegraded(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.degraded {
		if r == reason {
			return
		}
	}
	if len(s.degraded) < 16 {
		s.degraded = append(s.degraded, reason)
	}
}

// multiSink tees harness events to the sweep's hub and the global sink.
type multiSink []harness.EventSink

func (m multiSink) Write(rec obs.Record) {
	for _, s := range m {
		if s != nil {
			s.Write(rec)
		}
	}
}

// execute runs one sweep to a terminal state. Every completed cell is in
// the store (and the sweep's checkpoint) before the state goes terminal, so
// a drain mid-sweep loses no finished work.
func (s *Server) execute(sw *sweep) {
	obsSweepsInFlight.Add(1)
	defer obsSweepsInFlight.Add(-1)
	defer sw.cancel()

	// Chaos: the server.sweep site fires inside the executor, past the
	// dequeue accounting, so an injected panic exercises the same
	// isolation path a harness-escaping bug would.
	if s.cfg.Plane != nil {
		d := s.cfg.Plane.Decide(faultinject.SiteServerSweep)
		switch d.Fault {
		case faultinject.OpSlow:
			time.Sleep(d.Delay)
		case faultinject.OpPanic:
			panic("faultinject: injected panic at " + faultinject.SiteServerSweep)
		}
	}

	// The watchdog bounds the whole sweep; its cancellation propagates
	// through the harness exactly like a drain (in-flight cells stop,
	// completed cells are already durable).
	runCtx := sw.ctx
	if s.cfg.SweepTimeout > 0 {
		var wcancel context.CancelFunc
		runCtx, wcancel = context.WithTimeout(sw.ctx, s.cfg.SweepTimeout)
		defer wcancel()
	}

	e := sim.NewExperiments()
	e.Instructions = sw.instructions
	e.Warmup = sw.warmup
	e.Parallel = true
	e.Workers = s.cfg.Workers
	e.Store = s.cfg.Store
	e.SharedTraces = s.traces
	e.Ctx = runCtx
	e.RunTimeout = s.cfg.RunTimeout
	e.MaxRetries = s.cfg.MaxRetries
	e.Peer = s.cfg.Peer
	e.Events = multiSink{sw.hub, s.cfg.Events}
	// The checkpoint is keyed by the request hash: a daemon killed
	// mid-sweep resumes exactly this request's remaining cells on restart.
	ckptDir := filepath.Join(s.cfg.Store.Dir(), "checkpoints")
	_ = os.MkdirAll(ckptDir, 0o755)
	e.CheckpointPath = filepath.Join(ckptDir, sw.reqHash+".jsonl")
	e.Resume = true

	sw.mu.Lock()
	sw.state = api.StateRunning
	sw.started = time.Now()
	sw.exp = e
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_start", RunID: sw.id, Detail: sw.reqHash})
	s.cfg.Log.Printf("leakd: sweep %s running (%d cells, %s)", sw.id,
		len(sw.cells)+len(sw.attacks), sw.priority)

	// Both cell kinds run under one Experiments, so they share the store,
	// the checkpoint file (disjoint key namespaces) and the live counters.
	outs, runErr := e.RunCells(sw.cells)
	var attackOuts []sim.AttackOutcome
	if runErr == nil {
		attackOuts, runErr = e.RunAttackCells(sw.attacks)
	}
	// Run trouble and infrastructure trouble are different verdicts: a
	// batch that produced its results but could not persist them all is
	// degraded-complete (the daemon recomputes next time instead of lying
	// about durability), not failed.
	infraErr := e.Err()
	executed, hits, resumed := e.Executed(), e.StoreHits(), e.Resumed()
	_ = e.Close()

	// The watchdog fired iff the run context died while the sweep's own
	// context (drain, client deadline) is still alive.
	watchdogFired := runCtx.Err() != nil && sw.ctx.Err() == nil

	var results []api.CellStatus
	if outs != nil || attackOuts != nil {
		results = make([]api.CellStatus, 0, len(outs)+len(attackOuts))
		for _, o := range outs {
			results = append(results, cellStatus(api.FromSpec(o.Spec), o.Hash, o.Err))
		}
		for _, o := range attackOuts {
			results = append(results, cellStatus(api.FromAttackSpec(o.Spec), o.Hash, o.Err))
		}
	}
	failed := 0
	for _, cs := range results {
		if cs.State == "failed" {
			failed++
		}
	}

	state := api.StateCompleted
	var msg, degradedMsg string
	switch {
	case (runErr != nil || failed > 0) && watchdogFired:
		state = api.StateFailed
		msg = fmt.Sprintf("sweep watchdog timeout after %s", s.cfg.SweepTimeout)
		obsWatchdogFired.Add(1)
	case runErr != nil && sw.ctx.Err() != nil:
		state, msg = api.StateCanceled, sw.ctx.Err().Error()
	case runErr != nil:
		state, msg = api.StateFailed, runErr.Error()
	case failed > 0 && sw.ctx.Err() != nil:
		// No infrastructure error, but cells were cut short by the drain
		// or deadline: the sweep is canceled, not completed.
		state, msg = api.StateCanceled, sw.ctx.Err().Error()
	}
	if state == api.StateCompleted && infraErr != nil {
		degradedMsg = infraErr.Error()
		obsSweepsDegraded.Add(1)
		s.noteDegraded("store trouble: " + infraErr.Error())
		s.cfg.Log.Printf("leakd: sweep %s degraded-complete: %v", sw.id, infraErr)
	}

	sw.mu.Lock()
	sw.state = state
	sw.finished = time.Now()
	sw.exp = nil
	sw.results = results
	sw.errMsg = msg
	sw.degradedMsg = degradedMsg
	sw.executed, sw.storeHits, sw.resumed = executed, hits, resumed
	sw.mu.Unlock()

	sw.hub.Write(obs.Record{Type: "sweep_" + state, RunID: sw.id, Error: msg})
	sw.hub.Close()
	obsSweepsCompleted.Add(1)
	s.cfg.Log.Printf("leakd: sweep %s %s (executed=%d store_hits=%d resumed=%d failed=%d)",
		sw.id, state, executed, hits, resumed, failed)
}

// cellStatus renders one finished cell for the wire.
func cellStatus(c api.Cell, hash string, err *harness.RunError) api.CellStatus {
	if err != nil {
		return api.CellStatus{Cell: c, Hash: hash, State: "failed", Error: err.Err}
	}
	return api.CellStatus{Cell: c, Hash: hash, State: "done"}
}

// finishUnrun terminates a sweep that never reached an executor.
func (s *Server) finishUnrun(sw *sweep, state, msg string) {
	sw.cancel()
	sw.mu.Lock()
	sw.state = state
	sw.finished = time.Now()
	sw.errMsg = msg
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_" + state, RunID: sw.id, Error: msg})
	sw.hub.Close()
}

// Shutdown drains the daemon: new submissions get 503, queued sweeps are
// canceled, running sweeps get their contexts canceled (in-flight cells
// drain; completed cells are already checkpointed and stored), and the
// executors exit. It blocks until the drain finishes or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}

	// Empty the queues; executors racing us just run the sweep with an
	// already-canceled context, which lands in the same canceled state.
	for drained := false; !drained; {
		select {
		case sw := <-s.interactive:
			obsQueueDepth.Add(-1)
			s.finishUnrun(sw, api.StateCanceled, "daemon draining")
		case sw := <-s.bulk:
			obsQueueDepth.Add(-1)
			s.finishUnrun(sw, api.StateCanceled, "daemon draining")
		default:
			drained = true
		}
	}
	s.rootCancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

// ---- request admission ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Instructions == 0 {
		req.Instructions = s.cfg.DefaultInstructions
	}
	if req.Warmup == 0 {
		req.Warmup = s.cfg.DefaultWarmup
	}
	specs, attacks, wire, err := api.ExpandCells(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	total := len(specs) + len(attacks)
	if total == 0 {
		httpError(w, http.StatusBadRequest, "sweep has no cells")
		return
	}
	if total > s.cfg.MaxCells {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep has %d cells, limit is %d", total, s.cfg.MaxCells))
		return
	}
	priority := req.Priority
	switch priority {
	case "interactive", "bulk":
	case "":
		if total <= 2 {
			priority = "interactive"
		} else {
			priority = "bulk"
		}
	default:
		httpError(w, http.StatusBadRequest, `priority must be "interactive" or "bulk"`)
		return
	}
	reqHash, err := api.RequestHash(req.Instructions, req.Warmup, wire)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "hash request: "+err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		obsSweepsRejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	// Identical non-terminal request: alias onto the in-flight sweep
	// instead of queueing duplicate work.
	if prev := s.byHash[reqHash]; prev != nil {
		prev.mu.Lock()
		terminal := api.Terminal(prev.state)
		prev.mu.Unlock()
		if !terminal {
			s.mu.Unlock()
			respondJSON(w, http.StatusOK, s.status(prev, false))
			return
		}
	}
	s.seq++
	var ctx context.Context
	var cancel context.CancelFunc
	if req.TimeoutS > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, time.Duration(req.TimeoutS*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(s.rootCtx)
	}
	sw := &sweep{
		id:           fmt.Sprintf("s-%06d", s.seq),
		reqHash:      reqHash,
		priority:     priority,
		cells:        specs,
		attacks:      attacks,
		wire:         wire,
		instructions: req.Instructions,
		warmup:       req.Warmup,
		ctx:          ctx,
		cancel:       cancel,
		hub:          stream.NewHub(),
		state:        api.StateQueued,
		created:      time.Now(),
	}
	q := s.bulk
	if priority == "interactive" {
		q = s.interactive
	}
	// The gauge goes up before the enqueue: an executor that dequeues the
	// sweep immediately decrements a count that already includes it, so
	// the load signal (which the cluster coordinator's placement reads)
	// never dips below zero. A rejected submit takes the increment back.
	obsQueueDepth.Add(1)
	select {
	case q <- sw:
	default:
		s.mu.Unlock()
		obsQueueDepth.Add(-1)
		cancel()
		obsSweepsRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(api.RetryAfterSeconds(s.cfg.RetryAfter)))
		httpError(w, http.StatusTooManyRequests, priority+" queue is full")
		return
	}
	s.sweeps[sw.id] = sw
	s.byHash[reqHash] = sw
	s.mu.Unlock()
	obsSweepsAccepted.Add(1)
	respondJSON(w, http.StatusAccepted, s.status(sw, false))
}

// ---- status ----

// status snapshots a sweep for the wire. Cell-level detail is included
// only when withCells (the per-sweep GET), not on submit responses.
func (s *Server) status(sw *sweep, withCells bool) api.SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := api.SweepStatus{
		ID:       sw.id,
		State:    sw.state,
		Priority: sw.priority,
		Created:  sw.created,
		Total:    len(sw.cells) + len(sw.attacks),
		Error:    sw.errMsg,
		Degraded: sw.degradedMsg,
	}
	if !sw.started.IsZero() {
		t := sw.started
		st.Started = &t
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.Finished = &t
	}
	if sw.exp != nil { // running: live counters
		st.Executed = sw.exp.Executed()
		st.StoreHits = sw.exp.StoreHits()
		st.Resumed = sw.exp.Resumed()
		st.Completed = st.Executed + st.StoreHits + st.Resumed
	} else {
		st.Executed, st.StoreHits, st.Resumed = sw.executed, sw.storeHits, sw.resumed
	}
	if sw.results != nil {
		st.Completed = 0
		for _, cs := range sw.results {
			if cs.State == "failed" {
				st.Failed++
			} else {
				st.Completed++
			}
		}
		if withCells {
			st.Cells = append([]api.CellStatus(nil), sw.results...)
		}
	} else if withCells {
		for _, c := range sw.wire {
			st.Cells = append(st.Cells, api.CellStatus{Cell: c, State: "pending"})
		}
	}
	return st
}

func (s *Server) lookup(id string) *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	respondJSON(w, http.StatusOK, s.status(sw, true))
}

// handleEvents streams the sweep's trace events as SSE: the buffered
// history first, then live events until the sweep finishes or the client
// goes away. Event types are the harness's record types (run_start,
// run_done, checkpoint_hit, store_hit, sweep_*).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	if err := stream.ServeSSE(w, r, sw.hub); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok, err := s.cfg.Store.Get(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no such cell")
		return
	}
	respondJSON(w, http.StatusOK, api.CellRecord{Hash: rec.Hash, Key: rec.Key, Value: rec.Value})
}

// handleHealthz reports the daemon's tri-state health: "ok", "degraded"
// (serving, but limping — store corruption quarantined at open, store
// writes failing, isolated panics; Reasons says why) with 200 so load
// balancers keep routing, or "draining" with 503 so they stop.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	reasons := append([]string(nil), s.degraded...)
	s.mu.Unlock()
	quarantined := s.cfg.Store.Quarantined()
	if quarantined > 0 {
		reasons = append(reasons, fmt.Sprintf("store quarantined %d corrupt records at open", quarantined))
	}
	h := api.Health{
		Status:           "ok",
		Draining:         draining,
		Reasons:          reasons,
		QueueDepth:       len(s.interactive) + len(s.bulk),
		SweepsInFlight:   int(obsSweepsInFlight.Value()),
		StoreCells:       s.cfg.Store.Len(),
		StoreQuarantined: quarantined,
	}
	code := http.StatusOK
	if len(reasons) > 0 {
		h.Status = "degraded"
	}
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	respondJSON(w, code, h)
}

func respondJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	respondJSON(w, code, api.ErrorBody{Error: msg})
}
