package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/stream"
)

var (
	obsShards       = obs.Default.Counter(obs.MetricClusterShards)
	obsSteals       = obs.Default.Counter(obs.MetricClusterSteals)
	obsReshards     = obs.Default.Counter(obs.MetricClusterReshards)
	obsWorkerDeaths = obs.Default.Counter(obs.MetricClusterWorkerDeaths)
	obsCellsAcked   = obs.Default.Counter(obs.MetricClusterCellsAcked)
	obsWorkersAlive = obs.Default.Gauge(obs.GaugeClusterWorkersAlive)
	// Shared with the single-node daemon (registration is idempotent by
	// name), so both roles count turned-away submits in one family.
	obsSweepsRejected = obs.Default.Counter(obs.MetricSweepsRejected)
)

// Config parameterizes a coordinator. Workers and Store are required.
type Config struct {
	// Workers lists the worker daemons' addresses ("host:port" or URLs).
	Workers []string
	// Store is the coordinator's content-addressed store: every acked cell
	// lands here, and it is the first stop for both sweep resolution and
	// the federated /v1/cells read path the workers consult.
	Store *store.Store
	// Replicas is the ring's virtual-point count per worker (default 128).
	Replicas int
	// ShardRetries caps how many times one shard's cells are re-dispatched
	// after worker deaths before the cells are failed (default 2).
	ShardRetries int
	// QueueDepth caps admitted-but-unfinished sweeps (default 16); beyond
	// it submissions get 429 + Retry-After, exactly like a worker.
	QueueDepth int
	// MaxCells caps cells per sweep (default 4096).
	MaxCells int
	// SweepConcurrency is how many sweeps shard out at once (default 2:
	// the coordinator mostly waits on workers).
	SweepConcurrency int
	// DefaultInstructions/DefaultWarmup fill zero-valued requests; they
	// must match the workers' so content addresses agree (both default to
	// the same 1M/300K the server uses).
	DefaultInstructions uint64
	DefaultWarmup       uint64
	// RetryAfter is the backoff hint attached to 429s (default 5s).
	RetryAfter time.Duration
	// Retention bounds how long terminal sweeps stay queryable, as on the
	// worker (0 = keep forever).
	Retention time.Duration
	// Dial builds the per-worker client (default api.NewClient, which
	// carries the retry policy and circuit breaker).
	Dial func(addr string) *api.Client
	// Log receives operational lines; nil discards them.
	Log *log.Logger
}

// Coordinator is the cluster front end. Build with New, mount Handler,
// stop with Shutdown. Its HTTP surface is wire-compatible with a single
// worker's, so api.Client and leakbench -remote work against it unchanged.
type Coordinator struct {
	cfg  Config
	ring *Ring
	mux  *http.ServeMux

	workers map[string]*worker

	sem  chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	seq      int
	inflight int
	sweeps   map[string]*csweep
	byHash   map[string]*csweep
	degraded []string
	costs    map[string]float64 // EWMA ns/instr by bench+"/"+technique
}

// worker is one member daemon.
type worker struct {
	addr   string
	client *api.Client

	mu   sync.Mutex
	dead bool
}

func (w *worker) isDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

// markDead flips the worker to dead; reports whether this call did it.
func (w *worker) markDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return false
	}
	w.dead = true
	return true
}

// csweep is one admitted cluster sweep. Cells of both kinds (energy and
// attack) live in wire form: api.Cell carries everything the shard
// scheduler needs, and shards ship to workers verbatim, so the
// coordinator never branches on kind outside hashing and key derivation.
type csweep struct {
	id           string
	reqHash      string
	priority     string
	wire         []api.Cell
	hashes       []string // content address per cell ("" when uncomputable)
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
	// per-cell terminal outcomes: done[i] true means acked (value in the
	// coordinator store or served from it); failed[i] carries the error.
	done   []bool
	failed []string
	// aggregated counters: coordinator store hits plus worker tallies.
	executed, storeHits, resumed int
	errMsg, degradedMsg          string
}

// New builds a coordinator over cfg and connects its worker clients.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("cluster: Config.Store is required")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: Config.Workers is empty")
	}
	cfg = withDefaults(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		ring:       NewRing(cfg.Replicas),
		workers:    make(map[string]*worker, len(cfg.Workers)),
		sem:        make(chan struct{}, cfg.SweepConcurrency),
		stop:       make(chan struct{}),
		rootCtx:    ctx,
		rootCancel: cancel,
		sweeps:     make(map[string]*csweep),
		byHash:     make(map[string]*csweep),
		costs:      make(map[string]float64),
	}
	for _, addr := range cfg.Workers {
		if _, dup := c.workers[addr]; dup {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate worker %q", addr)
		}
		c.workers[addr] = &worker{addr: addr, client: cfg.Dial(addr)}
		c.ring.Add(addr)
	}
	obsWorkersAlive.Set(int64(len(c.workers)))
	// Warm the shard scheduler's cost model from the store's meta segment,
	// the same EWMA the workers persist.
	var persisted map[string]float64
	if ok, err := cfg.Store.GetMeta(sim.CostModelMetaKey, &persisted); err == nil && ok {
		for k, v := range persisted {
			if v > 0 {
				c.costs[k] = v
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", c.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", c.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/cells/{hash}", c.handleCell)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WriteProm(w)
	})
	c.mux = mux
	if cfg.Retention > 0 {
		c.wg.Add(1)
		go c.janitor()
	}
	return c, nil
}

func withDefaults(cfg Config) Config {
	if cfg.ShardRetries <= 0 {
		cfg.ShardRetries = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.SweepConcurrency <= 0 {
		cfg.SweepConcurrency = 2
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
	if cfg.Dial == nil {
		cfg.Dial = api.NewClient
	}
	if cfg.Log == nil {
		cfg.Log = log.New(os.Stderr, "", 0)
		cfg.Log.SetOutput(discard{})
	}
	return cfg
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Handler returns the coordinator's routes.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// janitor mirrors the worker's: terminal sweeps older than Retention are
// evicted so the lookup maps stay bounded.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	period := c.cfg.Retention / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.evictExpired(time.Now())
		}
	}
}

func (c *Coordinator) evictExpired(now time.Time) int {
	cutoff := now.Add(-c.cfg.Retention)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, sw := range c.sweeps {
		sw.mu.Lock()
		expired := api.Terminal(sw.state) && !sw.finished.IsZero() && sw.finished.Before(cutoff)
		sw.mu.Unlock()
		if !expired {
			continue
		}
		delete(c.sweeps, id)
		if c.byHash[sw.reqHash] == sw {
			delete(c.byHash, sw.reqHash)
		}
		n++
	}
	return n
}

// Shutdown drains: new submissions 503, running sweeps' contexts cancel
// (workers see client-side cancellation; their own durability guarantees
// hold), and the janitor exits.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.mu.Unlock()
	if !already {
		close(c.stop)
	}
	c.rootCancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain timed out: %w", ctx.Err())
	}
}

// noteDegraded records a deduplicated degradation reason for /healthz.
func (c *Coordinator) noteDegraded(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.degraded {
		if r == reason {
			return
		}
	}
	if len(c.degraded) < 16 {
		c.degraded = append(c.degraded, reason)
	}
}

// ---- admission ----

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Instructions == 0 {
		req.Instructions = c.cfg.DefaultInstructions
	}
	if req.Warmup == 0 {
		req.Warmup = c.cfg.DefaultWarmup
	}
	specs, attacks, wire, err := api.ExpandCells(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(wire) == 0 {
		httpError(w, http.StatusBadRequest, "sweep has no cells")
		return
	}
	if len(wire) > c.cfg.MaxCells {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep has %d cells, limit is %d", len(wire), c.cfg.MaxCells))
		return
	}
	priority := req.Priority
	switch priority {
	case "interactive", "bulk":
	case "":
		if len(wire) <= 2 {
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

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		obsSweepsRejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "coordinator is draining")
		return
	}
	// Identical non-terminal request: alias onto the in-flight sweep, the
	// same idempotency contract the workers give their clients.
	if prev := c.byHash[reqHash]; prev != nil {
		prev.mu.Lock()
		terminal := api.Terminal(prev.state)
		prev.mu.Unlock()
		if !terminal {
			c.mu.Unlock()
			respondJSON(w, http.StatusOK, c.status(prev, false))
			return
		}
	}
	if c.inflight >= c.cfg.QueueDepth {
		c.mu.Unlock()
		obsSweepsRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(api.RetryAfterSeconds(c.cfg.RetryAfter)))
		httpError(w, http.StatusTooManyRequests, "coordinator queue is full")
		return
	}
	c.seq++
	var ctx context.Context
	var cancel context.CancelFunc
	if req.TimeoutS > 0 {
		ctx, cancel = context.WithTimeout(c.rootCtx, time.Duration(req.TimeoutS*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(c.rootCtx)
	}
	// Content addresses are computed up front (cheap: one SHA-256 of a
	// small identity document per cell) so hashes is immutable from here —
	// the ring, the store pass, the ack path and status reads all share it
	// without coordination. The wire list is energy cells then attack
	// cells (ExpandCells' contract), so hashes indexes wire directly.
	hashes := make([]string, len(wire))
	for i, cs := range specs {
		mc := sim.DefaultMachine(cs.L2)
		mc.Instructions = req.Instructions
		mc.Warmup = req.Warmup
		if h, herr := sim.CellHash(mc, cs.Bench, cs.Technique, cs.Interval); herr == nil {
			hashes[i] = h
		}
	}
	for j, as := range attacks {
		sc, ok := attack.ByName(as.Scenario)
		if !ok {
			continue // ExpandCells validated; an unknown name still just dispatches unhashed
		}
		// Attack hashes ignore the instruction budget (scenario length is
		// fixed), so the default machine is the whole identity.
		if h, herr := sim.AttackHash(sim.DefaultMachine(as.L2), sc, as.Technique, as.Interval); herr == nil {
			hashes[len(specs)+j] = h
		}
	}
	sw := &csweep{
		id:           fmt.Sprintf("c-%06d", c.seq),
		reqHash:      reqHash,
		priority:     priority,
		wire:         wire,
		hashes:       hashes,
		instructions: req.Instructions,
		warmup:       req.Warmup,
		ctx:          ctx,
		cancel:       cancel,
		hub:          stream.NewHub(),
		state:        api.StateQueued,
		created:      time.Now(),
		done:         make([]bool, len(wire)),
		failed:       make([]string, len(wire)),
	}
	c.inflight++
	c.sweeps[sw.id] = sw
	c.byHash[reqHash] = sw
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case c.sem <- struct{}{}:
			defer func() { <-c.sem }()
			c.runSweep(sw)
		case <-c.stop:
			c.finish(sw, api.StateCanceled, "coordinator draining")
		}
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
	}()
	respondJSON(w, http.StatusAccepted, c.status(sw, false))
}

// ---- sweep execution ----

// shardGroup is the dispatch atom: one (workload, L2) slice of the sweep —
// exactly the grouping the workers' lockstep batch phase wants, so a
// shard arrives at a worker as one batchable front. The workload is a
// benchmark for energy cells and an attack scenario for attack cells;
// the two never mix in one group (groupCells keys them apart), so a
// shard is always homogeneous in kind.
type shardGroup struct {
	bench    string
	l2       int
	idxs     []int  // indices into csweep.wire
	key      string // ring position: the group's smallest cell hash
	attempts int
}

func (c *Coordinator) runSweep(sw *csweep) {
	sw.mu.Lock()
	sw.state = api.StateRunning
	sw.started = time.Now()
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_start", RunID: sw.id, Detail: sw.reqHash})
	c.cfg.Log.Printf("leakd-coord: sweep %s running (%d cells over %d workers)",
		sw.id, len(sw.wire), c.ring.Len())

	// Coordinator store pass: anything any worker ever acked (or a prior
	// sweep stored) is served without dispatch.
	pending := make([]int, 0, len(sw.wire))
	for i := range sw.wire {
		h := sw.hashes[i]
		if h != "" {
			if _, ok, err := c.cfg.Store.Get(h); err == nil && ok {
				sw.mu.Lock()
				sw.done[i] = true
				sw.storeHits++
				sw.mu.Unlock()
				sw.hub.Write(obs.Record{Type: "store_hit", RunID: sw.wire[i].Key()})
				continue
			}
		}
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		c.dispatch(sw, pending)
	}

	// Verdict. Worker deaths that re-sharded cleanly leave no trace here;
	// cells failed by exhausted shard retries make the sweep
	// degraded-complete (results that could be produced were; the rest are
	// reported honestly), and per-cell simulation failures mirror the
	// single-worker contract (completed with failed cells).
	state := api.StateCompleted
	var msg, degradedMsg string
	if sw.ctx.Err() != nil {
		state, msg = api.StateCanceled, sw.ctx.Err().Error()
	} else {
		sw.mu.Lock()
		doneN, failedN, deaths := 0, 0, 0
		var firstFail string
		for i := range sw.failed {
			if sw.done[i] {
				doneN++
				continue
			}
			if sw.failed[i] != "" {
				failedN++
				if firstFail == "" {
					firstFail = sw.failed[i]
				}
				if isDeathFailure(sw.failed[i]) {
					deaths++
				}
			}
		}
		sw.mu.Unlock()
		switch {
		case doneN == 0 && failedN == len(sw.wire) && failedN > 0:
			// Nothing at all could be produced — that is a failed sweep,
			// not a degraded-complete one.
			state, msg = api.StateFailed, firstFail
		case deaths > 0:
			degradedMsg = fmt.Sprintf("%d cells lost to worker deaths after %d re-dispatch attempts",
				deaths, c.cfg.ShardRetries)
			c.noteDegraded("worker deaths exhausted shard retries")
		}
	}
	c.foldCostModel(sw)
	c.finishWith(sw, state, msg, degradedMsg)
}

// isDeathFailure distinguishes shard-retry exhaustion from per-cell
// simulation failures when choosing the degraded verdict.
func isDeathFailure(msg string) bool {
	return strings.Contains(msg, "worker died") || strings.Contains(msg, "no live workers")
}

// dispatch shards pending cells over the ring and runs one runner per
// live worker until every shard is resolved. Runners prefer their own
// queue and steal from the most-loaded peer when idle; a worker death
// re-shards its queued and unacked work onto the survivors.
func (c *Coordinator) dispatch(sw *csweep, pending []int) {
	groups := c.groupCells(sw, pending)

	sc := &dispatchState{
		queues: make(map[string][]*shardGroup),
		dead:   make(map[string]bool),
	}
	sc.cond = sync.NewCond(&sc.mu)
	for addr, w := range c.workers {
		if w.isDead() {
			sc.dead[addr] = true
		}
	}

	// Initial assignment: ring owner, skipping already-dead workers.
	for _, g := range groups {
		owner, ok := c.ring.OwnerExcluding(g.key, sc.dead)
		if !ok {
			c.failGroup(sw, g, "no live workers")
			continue
		}
		sc.queues[owner] = append(sc.queues[owner], g)
		sc.outstanding++
	}
	if sc.outstanding == 0 {
		return
	}
	// Longest-estimated-first within each queue so stragglers start early
	// (the same longest-first heuristic the workers' own scheduler uses).
	for addr := range sc.queues {
		c.sortByCost(sw, sc.queues[addr])
	}

	var wg sync.WaitGroup
	for addr, w := range c.workers {
		if sc.dead[addr] {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.runner(sw, sc, w)
		}(w)
	}
	wg.Wait()

	// Shards nobody could run (every worker died) fail here rather than
	// hang.
	sc.mu.Lock()
	var orphans []*shardGroup
	for addr := range sc.queues {
		orphans = append(orphans, sc.queues[addr]...)
		sc.queues[addr] = nil
	}
	sc.mu.Unlock()
	for _, g := range orphans {
		c.failGroup(sw, g, "no live workers")
	}
}

// dispatchState is one sweep's shard scheduler.
type dispatchState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queues      map[string][]*shardGroup
	dead        map[string]bool
	outstanding int // groups assigned or running, not yet resolved
}

// groupCells buckets pending cell indices into (workload, L2) shard
// groups, each keyed by its smallest cell hash for a deterministic ring
// position. Attack cells group by scenario with a kind prefix so an
// attack scenario can never share a shard with a like-named benchmark.
func (c *Coordinator) groupCells(sw *csweep, pending []int) []*shardGroup {
	byBL := make(map[string]*shardGroup)
	var order []string
	for _, i := range pending {
		cs := sw.wire[i]
		name := cs.Bench
		if cs.Kind == api.KindAttack {
			name = "attack:" + cs.Scenario
		}
		bk := fmt.Sprintf("%s/%d", name, cs.L2)
		g, ok := byBL[bk]
		if !ok {
			g = &shardGroup{bench: name, l2: cs.L2}
			byBL[bk] = g
			order = append(order, bk)
		}
		g.idxs = append(g.idxs, i)
		h := sw.hashes[i]
		if h != "" && (g.key == "" || h < g.key) {
			g.key = h
		}
	}
	groups := make([]*shardGroup, 0, len(order))
	for _, bk := range order {
		g := byBL[bk]
		if g.key == "" {
			g.key = bk // unhashable cells still need a deterministic owner
		}
		groups = append(groups, g)
	}
	return groups
}

// estimate prices a group for the scheduler from the EWMA cost model.
func (c *Coordinator) estimate(sw *csweep, g *shardGroup) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, i := range g.idxs {
		ns, ok := c.costs[costKey(sw.wire[i])]
		if !ok {
			ns = 500 // prior: ~500 ns simulated per instruction
		}
		total += ns * float64(sw.instructions)
	}
	return total
}

func (c *Coordinator) sortByCost(sw *csweep, gs []*shardGroup) {
	sort.SliceStable(gs, func(i, j int) bool {
		return c.estimate(sw, gs[i]) > c.estimate(sw, gs[j])
	})
}

// runner drains shards for one worker: its own queue first, then steals
// the most expensive queued shard from the most-loaded peer. It exits
// when its worker dies or no shard remains anywhere (queued or running —
// a running shard may still re-queue work on failure, so idle runners
// wait instead of exiting).
func (c *Coordinator) runner(sw *csweep, sc *dispatchState, w *worker) {
	for {
		sc.mu.Lock()
		for {
			if sc.dead[w.addr] || sc.outstanding == 0 || sw.ctx.Err() != nil {
				sc.mu.Unlock()
				return
			}
			if g := sc.takeLocked(w.addr); g != nil {
				sc.mu.Unlock()
				c.runGroup(sw, sc, w, g)
				break
			}
			sc.cond.Wait()
		}
	}
}

// takeLocked pops the next shard for addr: head of its own queue, else a
// steal from the longest peer queue.
func (sc *dispatchState) takeLocked(addr string) *shardGroup {
	if q := sc.queues[addr]; len(q) > 0 {
		sc.queues[addr] = q[1:]
		return q[0]
	}
	victim, best := "", 0
	for a, q := range sc.queues {
		if a != addr && !sc.dead[a] && len(q) > best {
			victim, best = a, len(q)
		}
	}
	if victim == "" {
		// Also steal from dead workers' queues (their runner is gone).
		for a, q := range sc.queues {
			if a != addr && len(q) > best {
				victim, best = a, len(q)
			}
		}
	}
	if victim == "" {
		return nil
	}
	q := sc.queues[victim]
	g := q[0]
	sc.queues[victim] = q[1:]
	obsSteals.Add(1)
	return g
}

// resolveLocked retires one shard from the scheduler's books.
func (sc *dispatchState) resolveLocked(n int) {
	sc.outstanding += n
	sc.cond.Broadcast()
}

// runGroup dispatches one shard to w as a sub-sweep, pipes its event
// stream into the sweep's hub, acks each completed cell into the
// coordinator store, and on worker death re-shards the unacked remainder.
func (c *Coordinator) runGroup(sw *csweep, sc *dispatchState, w *worker, g *shardGroup) {
	obsShards.Add(1)
	sw.hub.Write(obs.Record{Type: "shard_dispatch", RunID: sw.id,
		Detail: fmt.Sprintf("%s/L2=%d (%d cells) -> %s attempt %d", g.bench, g.l2, len(g.idxs), w.addr, g.attempts+1)})

	unacked, died, errMsg := c.runGroupOnce(sw, w, g)

	if !died {
		sc.mu.Lock()
		sc.resolveLocked(-1)
		sc.mu.Unlock()
		return
	}

	// Worker death. Take it out of the ring's eligible set, re-shard this
	// group's unacked remainder and everything still queued for it.
	if w.markDead() {
		obsWorkerDeaths.Add(1)
		obsWorkersAlive.Add(-1)
		c.noteDegraded("worker " + w.addr + " died")
		c.cfg.Log.Printf("leakd-coord: worker %s died (%s); re-sharding", w.addr, errMsg)
	}
	sw.hub.Write(obs.Record{Type: "worker_death", RunID: sw.id, Error: errMsg, Detail: w.addr})

	sc.mu.Lock()
	sc.dead[w.addr] = true
	stranded := sc.queues[w.addr]
	delete(sc.queues, w.addr)

	requeue := func(ng *shardGroup) {
		owner, ok := c.ring.OwnerExcluding(ng.key, sc.dead)
		if !ok {
			sc.outstanding--
			sc.mu.Unlock()
			c.failGroup(sw, ng, "no live workers")
			sc.mu.Lock()
			return
		}
		sc.queues[owner] = append(sc.queues[owner], ng)
		obsReshards.Add(1)
		sw.hub.Write(obs.Record{Type: "shard_requeued", RunID: sw.id,
			Detail: fmt.Sprintf("%s/L2=%d (%d cells) -> %s", ng.bench, ng.l2, len(ng.idxs), owner)})
	}

	// Queued (never-attempted) shards keep their attempt count.
	for _, qg := range stranded {
		requeue(qg)
	}
	// This shard's unacked cells burn an attempt; exhausted retries fail.
	if len(unacked) > 0 {
		ng := &shardGroup{bench: g.bench, l2: g.l2, idxs: unacked, key: g.key, attempts: g.attempts + 1}
		if ng.attempts > c.cfg.ShardRetries {
			sc.outstanding--
			sc.mu.Unlock()
			c.failGroup(sw, ng, fmt.Sprintf("worker died (%s); shard retries exhausted", errMsg))
			sc.mu.Lock()
		} else {
			requeue(ng)
		}
	} else {
		sc.outstanding--
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// runGroupOnce runs one shard on one worker. It returns the cell indices
// that were not acked, whether the worker should be considered dead, and
// the transport error message when it is.
func (c *Coordinator) runGroupOnce(sw *csweep, w *worker, g *shardGroup) (unacked []int, died bool, errMsg string) {
	req := api.SweepRequest{
		Instructions: sw.instructions,
		Warmup:       sw.warmup,
		Priority:     sw.priority,
	}
	byKey := make(map[string]int, len(g.idxs)) // wire key -> sweep index
	for _, i := range g.idxs {
		wc := sw.wire[i]
		req.Cells = append(req.Cells, wc)
		byKey[wc.Key()] = i
	}

	st, err := w.client.SubmitSweep(sw.ctx, req)
	if err != nil {
		return g.idxs, deathError(sw, err), err.Error()
	}

	// Pipe the worker's event stream into the sweep's hub live. Worker
	// sweep_* lifecycle records are dropped (the coordinator owns the
	// sweep lifecycle); everything else — run_start, run_done, store_hit,
	// checkpoint_hit — flows through so the client sees per-cell progress
	// across the whole cluster in one stream.
	streamCtx, stopStream := context.WithCancel(sw.ctx)
	defer stopStream()
	go func() {
		_ = w.client.StreamEvents(streamCtx, st.ID, func(rec obs.Record) {
			if strings.HasPrefix(rec.Type, "sweep_") {
				return
			}
			sw.hub.Write(rec)
		})
	}()

	final, err := w.client.WaitSweep(sw.ctx, st.ID)
	if err != nil {
		return g.idxs, deathError(sw, err), err.Error()
	}
	if final.State == api.StateCanceled {
		if sw.ctx.Err() == nil {
			// The worker canceled the shard on its own (it is draining):
			// treat it like a death so the cells re-shard onto survivors.
			return g.idxs, true, "worker canceled shard (draining)"
		}
		return g.idxs, false, ""
	}
	if final.State == api.StateFailed {
		// The worker is alive and answered: the shard failed for real
		// (watchdog, harness error). Treat it like a death for retry
		// purposes only if the error smells transient? No — fail honestly.
		msg := final.Error
		if msg == "" {
			msg = "worker sweep failed"
		}
		for _, i := range g.idxs {
			c.failCell(sw, i, msg)
		}
		return nil, false, ""
	}

	// Completed (possibly with per-cell failures). Ack every done cell:
	// fetch its stored value from the worker and persist it into the
	// coordinator store (first-write-wins absorbs duplicates from steals
	// or re-shard races).
	acked := make(map[int]bool, len(g.idxs))
	var execd, hits, resumed int
	execd, hits, resumed = final.Executed, final.StoreHits, final.Resumed
	for _, cellSt := range final.Cells {
		i, ok := byKey[cellSt.Key()]
		if !ok {
			continue
		}
		switch {
		case cellSt.State == "done" && cellSt.Hash != "":
			if sw.hashes[i] != "" && cellSt.Hash != sw.hashes[i] {
				c.failCell(sw, i, fmt.Sprintf("worker returned hash %s, coordinator computed %s",
					cellSt.Hash, sw.hashes[i]))
				acked[i] = true // resolved (as a failure); not re-dispatchable
				continue
			}
			rec, err := w.client.Cell(sw.ctx, cellSt.Hash)
			if err != nil {
				// Transport trouble on the ack fetch: the remainder of the
				// group re-shards.
				return remainder(g.idxs, acked), deathError(sw, err), err.Error()
			}
			if perr := c.cfg.Store.Put(rec.Hash, rec.Key, rec.Value); perr != nil {
				c.noteDegraded("store trouble: " + perr.Error())
				sw.mu.Lock()
				if sw.degradedMsg == "" {
					sw.degradedMsg = perr.Error()
				}
				sw.mu.Unlock()
			}
			sw.mu.Lock()
			sw.done[i] = true
			sw.failed[i] = ""
			sw.mu.Unlock()
			acked[i] = true
			obsCellsAcked.Add(1)
		case cellSt.State == "failed":
			c.failCell(sw, i, cellSt.Error)
			acked[i] = true
		}
	}
	sw.mu.Lock()
	sw.executed += execd
	sw.storeHits += hits
	sw.resumed += resumed
	sw.mu.Unlock()
	if rem := remainder(g.idxs, acked); len(rem) > 0 {
		// The worker's status omitted cells we sent: account them failed
		// rather than hanging the shard.
		for _, i := range rem {
			c.failCell(sw, i, "worker status omitted this cell")
		}
	}
	return nil, false, ""
}

// deathError classifies a dispatch error: our own cancellation is not the
// worker's fault; anything else (transport errors, 5xx, breaker fast-fail
// after retries) counts as a death for re-shard purposes.
func deathError(sw *csweep, err error) bool {
	if sw.ctx.Err() != nil {
		return false
	}
	var se *api.StatusError
	if errors.As(err, &se) && se.Code < 500 {
		return false
	}
	return true
}

func remainder(idxs []int, acked map[int]bool) []int {
	var rem []int
	for _, i := range idxs {
		if !acked[i] {
			rem = append(rem, i)
		}
	}
	return rem
}

func (c *Coordinator) failCell(sw *csweep, i int, msg string) {
	if msg == "" {
		msg = "cell failed"
	}
	sw.mu.Lock()
	if !sw.done[i] {
		sw.failed[i] = msg
	}
	sw.mu.Unlock()
}

func (c *Coordinator) failGroup(sw *csweep, g *shardGroup, msg string) {
	for _, i := range g.idxs {
		c.failCell(sw, i, msg)
	}
}

// foldCostModel refreshes the persisted EWMA with this sweep's observed
// worker throughput so the next sweep's shard ordering is informed. The
// granularity is coarse (sweep wall-clock over executed cells) but
// self-correcting, like the workers' own model.
func (c *Coordinator) foldCostModel(sw *csweep) {
	sw.mu.Lock()
	executed := sw.executed
	elapsed := time.Since(sw.started)
	sw.mu.Unlock()
	if executed == 0 || sw.instructions == 0 || elapsed <= 0 {
		return
	}
	perCell := float64(elapsed.Nanoseconds()) / float64(executed) / float64(sw.instructions)
	const alpha = 0.3
	c.mu.Lock()
	for i := range sw.wire {
		sw.mu.Lock()
		ok := sw.done[i]
		sw.mu.Unlock()
		if !ok {
			continue
		}
		key := costKey(sw.wire[i])
		if prev, seen := c.costs[key]; seen {
			c.costs[key] = (1-alpha)*prev + alpha*perCell
		} else {
			c.costs[key] = perCell
		}
	}
	snapshot := make(map[string]float64, len(c.costs))
	for k, v := range c.costs {
		snapshot[k] = v
	}
	c.mu.Unlock()
	_ = c.cfg.Store.PutMeta(sim.CostModelMetaKey, snapshot)
}

func (c *Coordinator) finish(sw *csweep, state, msg string) {
	c.finishWith(sw, state, msg, "")
}

func (c *Coordinator) finishWith(sw *csweep, state, msg, degradedMsg string) {
	sw.cancel()
	sw.mu.Lock()
	sw.state = state
	sw.finished = time.Now()
	sw.errMsg = msg
	if degradedMsg != "" && sw.degradedMsg == "" {
		sw.degradedMsg = degradedMsg
	}
	failed := 0
	for i := range sw.failed {
		if !sw.done[i] && sw.failed[i] != "" {
			failed++
		}
	}
	executed, hits := sw.executed, sw.storeHits
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_" + state, RunID: sw.id, Error: msg})
	sw.hub.Close()
	c.cfg.Log.Printf("leakd-coord: sweep %s %s (executed=%d store_hits=%d failed=%d)",
		sw.id, state, executed, hits, failed)
}

// costKey names a wire cell's row in the EWMA cost model. Energy cells
// keep the historic bench/technique keys the workers persist; attack
// cells get their own rows (their cost is scenario-shaped, not
// budget-shaped).
func costKey(wc api.Cell) string {
	if wc.Kind == api.KindAttack {
		return "attack:" + wc.Scenario + "/" + strings.ToLower(wc.Technique)
	}
	return wc.Bench + "/" + strings.ToLower(wc.Technique)
}

// ---- status & reads ----

func (c *Coordinator) status(sw *csweep, withCells bool) api.SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := api.SweepStatus{
		ID:       sw.id,
		State:    sw.state,
		Priority: sw.priority,
		Created:  sw.created,
		Total:    len(sw.wire),
		Error:    sw.errMsg,
		Degraded: sw.degradedMsg,
		Executed: sw.executed, StoreHits: sw.storeHits, Resumed: sw.resumed,
	}
	if !sw.started.IsZero() {
		t := sw.started
		st.Started = &t
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.Finished = &t
	}
	for i := range sw.wire {
		switch {
		case sw.done[i]:
			st.Completed++
		case sw.failed[i] != "" && api.Terminal(sw.state):
			st.Failed++
		}
	}
	if withCells {
		for i, wc := range sw.wire {
			cs := api.CellStatus{Cell: wc, Hash: sw.hashes2(i)}
			switch {
			case sw.done[i]:
				cs.State = "done"
			case sw.failed[i] != "" && api.Terminal(sw.state):
				cs.State = "failed"
				cs.Error = sw.failed[i]
			default:
				cs.State = "pending"
			}
			st.Cells = append(st.Cells, cs)
		}
	}
	return st
}

// hashes2 is a nil-safe hash lookup (status can race the hash pass).
func (sw *csweep) hashes2(i int) string {
	if i < len(sw.hashes) {
		return sw.hashes[i]
	}
	return ""
}

func (c *Coordinator) lookup(id string) *csweep {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweeps[id]
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw := c.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	respondJSON(w, http.StatusOK, c.status(sw, true))
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	sw := c.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	if err := stream.ServeSSE(w, r, sw.hub); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleCell is the federated read path: the coordinator's own store
// first, then every live worker. A worker hit is persisted locally before
// serving, so the federation converges toward the coordinator having
// everything. Workers answer /v1/cells from their local store only, so
// there is no recursion.
func (c *Coordinator) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok, err := c.cfg.Store.Get(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ok {
		respondJSON(w, http.StatusOK, api.CellRecord{Hash: rec.Hash, Key: rec.Key, Value: rec.Value})
		return
	}
	for _, wk := range c.liveWorkers() {
		val, hit, ferr := wk.client.FetchCell(r.Context(), hash)
		if ferr != nil || !hit {
			continue
		}
		if perr := c.cfg.Store.Put(hash, nil, json.RawMessage(val)); perr != nil {
			c.noteDegraded("store trouble: " + perr.Error())
		}
		respondJSON(w, http.StatusOK, api.CellRecord{Hash: hash, Value: val})
		return
	}
	httpError(w, http.StatusNotFound, "no such cell")
}

func (c *Coordinator) liveWorkers() []*worker {
	out := make([]*worker, 0, len(c.workers))
	for _, addr := range c.ring.Nodes() {
		if w := c.workers[addr]; w != nil && !w.isDead() {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	draining := c.draining
	inflight := c.inflight
	reasons := append([]string(nil), c.degraded...)
	c.mu.Unlock()
	h := api.Health{
		Status:         "ok",
		Draining:       draining,
		Reasons:        reasons,
		QueueDepth:     inflight,
		SweepsInFlight: inflight,
		StoreCells:     c.cfg.Store.Len(),
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
