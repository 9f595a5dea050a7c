// Package server is leakd's front door: an HTTP/JSON facade that admits
// sweeps into a bounded dual-priority queue (interactive requests overtake
// bulk sweeps), runs them on an Executor and serves their status, SSE
// progress, stored cells, health and metrics. The single-node daemon's
// executor runs each sweep on the simulation harness over the
// content-addressed store, which serves repeated or overlapping sweeps so
// they simulate only the delta, and records each cell as it settles so a
// killed daemon's resubmitted sweep resumes from it. The cluster
// coordinator (internal/cluster) mounts this same front door over an
// executor that shards sweeps across worker daemons.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
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
	// completed cells stay stored.
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

// Executor turns admitted sweeps into verdicts. Everything a client
// touches — admission, aliasing, queueing, lifecycle, status, events,
// health and metrics — belongs to the front door, so the single-node
// daemon and the cluster coordinator differ only in their Executor.
type Executor interface {
	// Execute runs one sweep to its verdict. It returns early once sw.Ctx
	// is canceled, publishes progress through sw.Live and events through
	// sw.Write, and may panic: the front door fails that sweep alone.
	Execute(sw *Sweep) Verdict
	// FetchCell answers GET /v1/cells/{hash} for a hash the store lacks;
	// the front door persists a hit before serving it.
	sim.CellFetcher
}

// Server is the front door. Build with New (or NewWith), mount Handler,
// stop with Shutdown.
type Server struct {
	cfg  Config
	exec Executor
	mux  *http.ServeMux

	interactive chan *Sweep
	bulk        chan *Sweep

	rootCtx    context.Context
	rootCancel context.CancelFunc
	stop       chan struct{}
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int
	sweeps   map[string]*Sweep
	byHash   map[string]*Sweep // request hash -> most recent sweep
	// degraded holds deduplicated reasons the daemon is limping (store
	// trouble on otherwise-successful sweeps, isolated panics, worker
	// deaths); /healthz reports them under status "degraded".
	degraded []string
}

// Sweep is one admitted request moving through queued -> running ->
// {completed, failed, canceled}. Its exported fields are fixed at
// admission, so an Executor reads them without locking.
type Sweep struct {
	ID       string
	ReqHash  string
	Priority string
	// Cells is the sweep in wire order, every energy cell before every
	// attack cell; Specs and Attacks are the same cells decoded, in the
	// same order (api.ExpandCells' contract).
	Cells        []api.Cell
	Specs        []sim.CellSpec
	Attacks      []sim.AttackSpec
	Instructions uint64
	Warmup       uint64
	// Ctx ends when the front door drains or the request's timeout_s
	// expires.
	Ctx context.Context

	cancel context.CancelFunc
	hub    *stream.Hub
	srv    *Server

	mu       sync.Mutex
	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	live     func() Verdict // while running: the executor's progress view
	verdict  Verdict        // once terminal: the final answer
}

// Verdict is how an Executor answers a sweep. A live view (Sweep.Live)
// has the same shape with State unset.
type Verdict struct {
	State string // api.StateCompleted, api.StateFailed or api.StateCanceled
	Error string
	// Degraded marks a completed sweep whose infrastructure limped (store
	// writes failing, cells lost to worker deaths): every answer it gives
	// is correct, and the gaps are labeled.
	Degraded string
	// Cells are the per-cell statuses in wire order, or nil while no cell
	// has an answer: status then shows every cell pending and counts
	// progress from the tallies.
	Cells []api.CellStatus
	// Executed and StoreHits tally where answers came from.
	Executed, StoreHits int
}

// Live installs the executor's progress view; status reads call it until
// the verdict lands.
func (sw *Sweep) Live(view func() Verdict) {
	sw.mu.Lock()
	sw.live = view
	sw.mu.Unlock()
}

// Write publishes one event on the sweep's SSE stream, making a Sweep a
// harness.EventSink.
func (sw *Sweep) Write(rec obs.Record) { sw.hub.Write(rec) }

// Degrade records a reason the whole daemon is limping, for /healthz.
func (sw *Sweep) Degrade(reason string) { sw.srv.noteDegraded(reason) }

// finish publishes a sweep's verdict: terminal state, final event, stream
// closed.
func (sw *Sweep) finish(v Verdict) {
	sw.cancel()
	sw.mu.Lock()
	sw.state = v.State
	sw.finished = time.Now()
	sw.live = nil
	sw.verdict = v
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_" + v.State, RunID: sw.ID, Error: v.Error})
	sw.hub.Close()
}

// New builds the single-node daemon — the front door over the local
// executor — and starts it. The caller mounts Handler() on an http.Server
// (obs.HardenedServer) and must eventually call Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	s := newServer(cfg)
	s.startExecutors()
	return s, nil
}

// NewWith builds the front door over ex and starts it. The Config fields
// only the local executor reads (Workers, RunTimeout, MaxRetries,
// SweepTimeout, Peer, Events) have no effect here.
func NewWith(cfg Config, ex Executor) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	s := newFront(cfg, ex)
	s.startExecutors()
	return s, nil
}

// newServer builds the daemon without starting executors; in-package tests
// use the paused form to exercise admission control deterministically.
func newServer(cfg Config) *Server {
	return newFront(cfg, &local{cfg: cfg})
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
		cfg.Log = log.New(io.Discard, "", 0)
	}
	return cfg
}

func newFront(cfg Config, ex Executor) *Server {
	cfg = withDefaults(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		exec:        ex,
		interactive: make(chan *Sweep, cfg.QueueDepth),
		bulk:        make(chan *Sweep, cfg.QueueDepth),
		rootCtx:     ctx,
		rootCancel:  cancel,
		stop:        make(chan struct{}),
		sweeps:      make(map[string]*Sweep),
		byHash:      make(map[string]*Sweep),
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
		if s.byHash[sw.ReqHash] == sw {
			delete(s.byHash, sw.ReqHash)
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
		var sw *Sweep
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
// the executor (or injected by the chaos plane) fails that sweep, not the
// executor goroutine — the daemon keeps serving.
func (s *Server) runIsolated(sw *Sweep) {
	defer func() {
		if p := recover(); p != nil {
			obsServerPanics.Add(1)
			s.noteDegraded("sweep executor panic")
			s.cfg.Log.Printf("leakd: panic in sweep %s (isolated): %v\n%s", sw.ID, p, debug.Stack())
			sw.finish(Verdict{State: api.StateFailed, Error: fmt.Sprintf("sweep panicked: %v", p)})
		}
	}()
	s.run(sw)
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

// run takes one sweep through running to its executor's verdict.
func (s *Server) run(sw *Sweep) {
	obsSweepsInFlight.Add(1)
	defer obsSweepsInFlight.Add(-1)

	// Chaos: the server.sweep site fires inside the executor, past the
	// dequeue accounting, so an injected panic exercises the same
	// isolation path an executor-escaping bug would.
	if s.cfg.Plane != nil {
		d := s.cfg.Plane.Decide(faultinject.SiteServerSweep)
		switch d.Fault {
		case faultinject.OpSlow:
			time.Sleep(d.Delay)
		case faultinject.OpPanic:
			panic("faultinject: injected panic at " + faultinject.SiteServerSweep)
		}
	}

	sw.mu.Lock()
	sw.state = api.StateRunning
	sw.started = time.Now()
	sw.mu.Unlock()
	sw.Write(obs.Record{Type: "sweep_start", RunID: sw.ID, Detail: sw.ReqHash})
	s.cfg.Log.Printf("leakd: sweep %s running (%d cells, %s)", sw.ID, len(sw.Cells), sw.Priority)

	v := s.exec.Execute(sw)
	if v.State == api.StateCompleted && v.Degraded != "" {
		obsSweepsDegraded.Add(1)
		s.cfg.Log.Printf("leakd: sweep %s degraded-complete: %s", sw.ID, v.Degraded)
	}
	obsSweepsCompleted.Add(1)
	sw.finish(v)
	failed := 0
	for _, cs := range v.Cells {
		if cs.State == "failed" {
			failed++
		}
	}
	s.cfg.Log.Printf("leakd: sweep %s %s (executed=%d store_hits=%d failed=%d)",
		sw.ID, v.State, v.Executed, v.StoreHits, failed)
}

// local is the single-node Executor: each sweep runs its own
// sim.Experiments over the shared store, which records every cell as it
// settles, so a daemon killed mid-sweep simulates only the cells it had
// not finished when the sweep is resubmitted.
type local struct {
	cfg Config
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

// Execute runs one sweep to a verdict. Every completed cell is in the
// store before it counts as executed, so a drain or a kill mid-sweep
// loses no finished work.
func (l *local) Execute(sw *Sweep) Verdict {
	// The watchdog bounds the whole sweep; its cancellation propagates
	// through the harness exactly like a drain (in-flight cells stop,
	// completed cells are already durable).
	runCtx := sw.Ctx
	if l.cfg.SweepTimeout > 0 {
		var wcancel context.CancelFunc
		runCtx, wcancel = context.WithTimeout(sw.Ctx, l.cfg.SweepTimeout)
		defer wcancel()
	}

	e := sim.NewExperiments()
	e.Instructions = sw.Instructions
	e.Warmup = sw.Warmup
	e.Workers = l.cfg.Workers
	e.Store = l.cfg.Store
	e.Ctx = runCtx
	e.RunTimeout = l.cfg.RunTimeout
	e.MaxRetries = l.cfg.MaxRetries
	e.Peer = l.cfg.Peer
	e.Events = multiSink{sw, l.cfg.Events}
	sw.Live(func() Verdict {
		return Verdict{Executed: e.Executed(), StoreHits: e.StoreHits()}
	})

	// Both cell kinds run under one Experiments, so they share the store
	// and the live counters.
	outs, runErr := e.RunCells(sw.Specs)
	var attackOuts []sim.AttackOutcome
	if runErr == nil {
		attackOuts, runErr = e.RunAttackCells(sw.Attacks)
	}
	// Run trouble and infrastructure trouble are different verdicts: a
	// batch that produced its results but could not persist them all is
	// degraded-complete (the daemon recomputes next time instead of lying
	// about durability), not failed.
	infraErr := e.Err()
	v := Verdict{State: api.StateCompleted, Executed: e.Executed(), StoreHits: e.StoreHits()}

	// The watchdog fired iff the run context died while the sweep's own
	// context (drain, client deadline) is still alive.
	watchdogFired := runCtx.Err() != nil && sw.Ctx.Err() == nil

	if outs != nil || attackOuts != nil {
		v.Cells = make([]api.CellStatus, 0, len(outs)+len(attackOuts))
		for _, o := range outs {
			v.Cells = append(v.Cells, cellStatus(api.FromSpec(o.Spec), o.Hash, o.Err))
		}
		for _, o := range attackOuts {
			v.Cells = append(v.Cells, cellStatus(api.FromAttackSpec(o.Spec), o.Hash, o.Err))
		}
	}
	failed := 0
	for _, cs := range v.Cells {
		if cs.State == "failed" {
			failed++
		}
	}

	switch {
	case (runErr != nil || failed > 0) && watchdogFired:
		v.State = api.StateFailed
		v.Error = fmt.Sprintf("sweep watchdog timeout after %s", l.cfg.SweepTimeout)
		obsWatchdogFired.Add(1)
	case runErr != nil && sw.Ctx.Err() != nil:
		v.State, v.Error = api.StateCanceled, sw.Ctx.Err().Error()
	case runErr != nil:
		v.State, v.Error = api.StateFailed, runErr.Error()
	case failed > 0 && sw.Ctx.Err() != nil:
		// No infrastructure error, but cells were cut short by the drain
		// or deadline: the sweep is canceled, not completed.
		v.State, v.Error = api.StateCanceled, sw.Ctx.Err().Error()
	}
	if v.State == api.StateCompleted && infraErr != nil {
		v.Degraded = infraErr.Error()
		sw.Degrade("store trouble: " + infraErr.Error())
	}
	return v
}

// FetchCell never finds anything: a daemon answers /v1/cells from its own
// store only, so a coordinator asking its workers never recurses.
func (*local) FetchCell(context.Context, string) (json.RawMessage, bool, error) {
	return nil, false, nil
}

// cellStatus renders one finished cell for the wire.
func cellStatus(c api.Cell, hash string, err *harness.RunError) api.CellStatus {
	if err != nil {
		return api.CellStatus{Cell: c, Hash: hash, State: "failed", Error: err.Err}
	}
	return api.CellStatus{Cell: c, Hash: hash, State: "done"}
}

// Shutdown drains the daemon: new submissions get 503, queued sweeps are
// canceled, running sweeps get their contexts canceled (in-flight cells
// drain; completed cells are already stored), and the
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
			sw.finish(Verdict{State: api.StateCanceled, Error: "daemon draining"})
		case sw := <-s.bulk:
			obsQueueDepth.Add(-1)
			sw.finish(Verdict{State: api.StateCanceled, Error: "daemon draining"})
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
	// Refuse an oversized cross product before ExpandCells builds it: a
	// few hundred bytes of axes can name millions of cells.
	if n := api.CrossCells(req); n > s.cfg.MaxCells {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep has at least %d cells, limit is %d", n, s.cfg.MaxCells))
		return
	}
	specs, attacks, wire, err := api.ExpandCells(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	total := len(wire)
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
			respondJSON(w, http.StatusOK, prev.status(false))
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
	sw := &Sweep{
		ID:           fmt.Sprintf("s-%06d", s.seq),
		ReqHash:      reqHash,
		Priority:     priority,
		Cells:        wire,
		Specs:        specs,
		Attacks:      attacks,
		Instructions: req.Instructions,
		Warmup:       req.Warmup,
		Ctx:          ctx,
		cancel:       cancel,
		hub:          stream.NewHub(),
		srv:          s,
		state:        api.StateQueued,
		created:      time.Now(),
	}
	q := s.bulk
	if priority == "interactive" {
		q = s.interactive
	}
	// The gauge goes up before the enqueue: an executor that dequeues the
	// sweep immediately decrements a count that already includes it, so
	// the gauge never dips below zero. A rejected submit takes the
	// increment back.
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
	s.sweeps[sw.ID] = sw
	s.byHash[reqHash] = sw
	s.mu.Unlock()
	obsSweepsAccepted.Add(1)
	respondJSON(w, http.StatusAccepted, sw.status(false))
}

// ---- status ----

// status snapshots a sweep for the wire. Cell-level detail is included
// only when withCells (the per-sweep GET), not on submit responses.
func (sw *Sweep) status(withCells bool) api.SweepStatus {
	sw.mu.Lock()
	st := api.SweepStatus{
		ID:       sw.ID,
		State:    sw.state,
		Priority: sw.Priority,
		Created:  sw.created,
		Total:    len(sw.Cells),
	}
	if !sw.started.IsZero() {
		t := sw.started
		st.Started = &t
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.Finished = &t
	}
	v, live := sw.verdict, sw.live
	sw.mu.Unlock()
	// The live view takes the executor's own locks, so it runs outside
	// the sweep's.
	if live != nil {
		v = live()
	}
	st.Error, st.Degraded = v.Error, v.Degraded
	st.Executed, st.StoreHits = v.Executed, v.StoreHits
	if v.Cells == nil {
		st.Completed = v.Executed + v.StoreHits
		if withCells {
			for _, c := range sw.Cells {
				st.Cells = append(st.Cells, api.CellStatus{Cell: c, State: "pending"})
			}
		}
		return st
	}
	for _, cs := range v.Cells {
		switch cs.State {
		case "done":
			st.Completed++
		case "failed":
			st.Failed++
		}
	}
	if withCells {
		st.Cells = v.Cells // a verdict is never mutated once published
	}
	return st
}

func (s *Server) lookup(id string) *Sweep {
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
	respondJSON(w, http.StatusOK, sw.status(true))
}

// handleEvents streams the sweep's trace events as SSE: the buffered
// history first, then live events until the sweep finishes or the client
// goes away. Event types are the run trace's record types (run_start,
// run_done, store_hit, sweep_*).
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

// handleCell serves a stored cell. A store miss falls back to the
// executor (a coordinator asks its live workers), and a hit found there is
// persisted before it is served, so the store converges toward holding
// everything.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok, err := s.cfg.Store.Get(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ok {
		respondJSON(w, http.StatusOK, api.CellRecord{Hash: rec.Hash, Key: rec.Key, Value: rec.Value})
		return
	}
	val, hit, err := s.exec.FetchCell(r.Context(), hash)
	if err != nil || !hit {
		httpError(w, http.StatusNotFound, "no such cell")
		return
	}
	if perr := s.cfg.Store.Put(hash, nil, val); perr != nil {
		s.noteDegraded("store trouble: " + perr.Error())
	}
	respondJSON(w, http.StatusOK, api.CellRecord{Hash: hash, Value: val})
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
