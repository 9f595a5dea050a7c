package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/obs"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
)

var (
	obsShards       = obs.Default.Counter(obs.MetricClusterShards)
	obsSteals       = obs.Default.Counter(obs.MetricClusterSteals)
	obsReshards     = obs.Default.Counter(obs.MetricClusterReshards)
	obsWorkerDeaths = obs.Default.Counter(obs.MetricClusterWorkerDeaths)
	obsCellsAcked   = obs.Default.Counter(obs.MetricClusterCellsAcked)
	obsQueueWait    = obs.Default.Counter(obs.MetricClusterShardQueueWait)
	obsWorkersAlive = obs.Default.Gauge(obs.GaugeClusterWorkersAlive)
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
	// QueueDepth caps queued sweeps per priority class (default 16);
	// beyond it submissions get 429 + Retry-After, exactly like a worker.
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

// Coordinator is the cluster front end: the daemon's own front door
// (server.Server) over a Dispatcher. Build with New, mount Handler, stop
// with Shutdown. Its HTTP surface is a worker's, so api.Client and
// leakbench -remote work against it unchanged.
type Coordinator struct {
	*server.Server
	*Dispatcher
}

// New builds a coordinator over cfg, connects its worker clients and
// starts it.
func New(cfg Config) (*Coordinator, error) {
	d, err := NewDispatcher(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.SweepConcurrency <= 0 {
		cfg.SweepConcurrency = 2
	}
	srv, err := server.NewWith(server.Config{
		Store:               cfg.Store,
		QueueDepth:          cfg.QueueDepth,
		SweepConcurrency:    cfg.SweepConcurrency,
		MaxCells:            cfg.MaxCells,
		DefaultInstructions: cfg.DefaultInstructions,
		DefaultWarmup:       cfg.DefaultWarmup,
		RetryAfter:          cfg.RetryAfter,
		Retention:           cfg.Retention,
		Log:                 cfg.Log,
	}, d)
	if err != nil {
		return nil, err
	}
	return &Coordinator{Server: srv, Dispatcher: d}, nil
}

// Dispatcher is the cluster's server.Executor. It answers what the
// coordinator store already holds, shards the rest across the workers by
// load with the ring as tie-break, steals onto idle workers, re-shards on
// worker death, and acks every result into the coordinator store.
type Dispatcher struct {
	cfg     Config
	ring    *Ring
	workers map[string]*worker

	// mu guards load and every in-flight sweep's dispatchState; cond is
	// broadcast whenever a shard leaves the books, so a runner waiting to
	// steal wakes when its worker goes idle, whichever sweep freed it.
	mu   sync.Mutex
	cond *sync.Cond
	// load counts, per worker, the cells queued for or running on it
	// across every sweep in flight.
	load map[string]int
}

// NewDispatcher connects cfg's worker clients. It reads Workers, Store,
// Replicas, ShardRetries, Dial and Log; the rest of Config belongs to the
// front door.
func NewDispatcher(cfg Config) (*Dispatcher, error) {
	if cfg.Store == nil {
		return nil, errors.New("cluster: Config.Store is required")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: Config.Workers is empty")
	}
	if cfg.ShardRetries <= 0 {
		cfg.ShardRetries = 2
	}
	if cfg.Dial == nil {
		cfg.Dial = api.NewClient
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	d := &Dispatcher{
		cfg:     cfg,
		ring:    NewRing(cfg.Replicas),
		workers: make(map[string]*worker, len(cfg.Workers)),
		load:    make(map[string]int, len(cfg.Workers)),
	}
	d.cond = sync.NewCond(&d.mu)
	for _, addr := range cfg.Workers {
		if _, dup := d.workers[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q", addr)
		}
		d.workers[addr] = &worker{addr: addr, client: cfg.Dial(addr)}
		d.ring.Add(addr)
	}
	obsWorkersAlive.Set(int64(len(d.workers)))
	return d, nil
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

// csweep is one sweep's dispatch books. Cells of both kinds (energy and
// attack) live in wire form: api.Cell carries everything the shard
// scheduler needs, and shards ship to workers verbatim, so dispatch never
// branches on kind outside hashing and key derivation.
type csweep struct {
	*server.Sweep
	hashes []string // content address per cell ("" when uncomputable)

	mu sync.Mutex
	// per-cell outcomes: done[i] true means acked (value in the
	// coordinator store or served from it); failed[i] carries the error.
	done   []bool
	failed []string
	// aggregated counters: coordinator store hits plus worker tallies.
	executed, storeHits, resumed int
	degradedMsg                  string
}

// cellHashes computes every cell's content address up front (cheap: one
// SHA-256 of a small identity document per cell) so the result is
// immutable from here — the ring, the store pass, the ack path and status
// reads all share it without coordination. Cells lists energy cells then
// attack cells (ExpandCells' contract), so the result indexes Cells.
func cellHashes(sw *server.Sweep) []string {
	hashes := make([]string, len(sw.Cells))
	for i, cs := range sw.Specs {
		mc := sim.DefaultMachine(cs.L2)
		mc.Instructions = sw.Instructions
		mc.Warmup = sw.Warmup
		if h, err := sim.CellHash(mc, cs.Bench, cs.Technique, cs.Interval); err == nil {
			hashes[i] = h
		}
	}
	for j, as := range sw.Attacks {
		sc, ok := attack.ByName(as.Scenario)
		if !ok {
			continue // ExpandCells validated; an unknown name still just dispatches unhashed
		}
		// Attack hashes ignore the instruction budget (scenario length is
		// fixed), so the default machine is the whole identity.
		if h, err := sim.AttackHash(sim.DefaultMachine(as.L2), sc, as.Technique, as.Interval); err == nil {
			hashes[len(sw.Specs)+j] = h
		}
	}
	return hashes
}

// view renders the sweep's progress for the front door: every cell with
// its content address and state, plus the aggregated tallies.
func (sw *csweep) view() server.Verdict {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	v := server.Verdict{
		Degraded: sw.degradedMsg,
		Cells:    make([]api.CellStatus, len(sw.Cells)),
		Executed: sw.executed, StoreHits: sw.storeHits, Resumed: sw.resumed,
	}
	for i, wc := range sw.Cells {
		cs := api.CellStatus{Cell: wc, Hash: sw.hashes[i], State: "pending"}
		switch {
		case sw.done[i]:
			cs.State = "done"
		case sw.failed[i] != "":
			cs.State, cs.Error = "failed", sw.failed[i]
		}
		v.Cells[i] = cs
	}
	return v
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
	idxs     []int  // indices into csweep.Cells
	key      string // ring position: the group's smallest cell hash
	attempts int
}

// Execute answers one sweep: the coordinator store first, then the ring.
func (d *Dispatcher) Execute(s *server.Sweep) server.Verdict {
	sw := &csweep{
		Sweep:  s,
		hashes: cellHashes(s),
		done:   make([]bool, len(s.Cells)),
		failed: make([]string, len(s.Cells)),
	}
	s.Live(sw.view)

	// Coordinator store pass: anything any worker ever acked (or a prior
	// sweep stored) is served without dispatch.
	pending := make([]int, 0, len(sw.Cells))
	for i := range sw.Cells {
		h := sw.hashes[i]
		if h != "" {
			if _, ok, err := d.cfg.Store.Get(h); err == nil && ok {
				sw.mu.Lock()
				sw.done[i] = true
				sw.storeHits++
				sw.mu.Unlock()
				sw.Write(obs.Record{Type: "store_hit", RunID: sw.Cells[i].Key()})
				continue
			}
		}
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		d.dispatch(sw, pending)
	}

	// Verdict. Worker deaths that re-sharded cleanly leave no trace here;
	// cells failed by exhausted shard retries make the sweep
	// degraded-complete (results that could be produced were; the rest are
	// reported honestly), and per-cell simulation failures mirror the
	// single-worker contract (completed with failed cells).
	v := sw.view()
	v.State = api.StateCompleted
	if sw.Ctx.Err() != nil {
		v.State, v.Error = api.StateCanceled, sw.Ctx.Err().Error()
		return v
	}
	doneN, failedN, deaths := 0, 0, 0
	var firstFail string
	for _, cs := range v.Cells {
		switch cs.State {
		case "done":
			doneN++
		case "failed":
			failedN++
			if firstFail == "" {
				firstFail = cs.Error
			}
			if isDeathFailure(cs.Error) {
				deaths++
			}
		}
	}
	switch {
	case doneN == 0 && failedN == len(sw.Cells) && failedN > 0:
		// Nothing at all could be produced — that is a failed sweep, not
		// a degraded-complete one.
		v.State, v.Error = api.StateFailed, firstFail
	case deaths > 0:
		if v.Degraded == "" {
			v.Degraded = fmt.Sprintf("%d cells lost to worker deaths after %d re-dispatch attempts",
				deaths, d.cfg.ShardRetries)
		}
		sw.Degrade("worker deaths exhausted shard retries")
	}
	return v
}

// isDeathFailure distinguishes shard-retry exhaustion from per-cell
// simulation failures when choosing the degraded verdict.
func isDeathFailure(msg string) bool {
	return strings.Contains(msg, "worker died") || strings.Contains(msg, "no live workers")
}

// dispatch books pending cells onto the workers and runs one runner per
// live worker until every shard is resolved. Each (workload, L2) group
// goes to the live worker with the least load across every sweep in
// flight, ties to ring order from the group's key; runners drain their
// own queue first and steal only when their worker has no load at all; a
// worker death re-books its queued and unacked work onto the survivors.
func (d *Dispatcher) dispatch(sw *csweep, pending []int) {
	groups := groupCells(sw, pending)
	// Largest group first, by cell count: booked first, the longest shards
	// balance the load best, and each queue starts its longest shard first.
	sort.SliceStable(groups, func(i, j int) bool { return len(groups[i].idxs) > len(groups[j].idxs) })

	sc := &dispatchState{
		queues: make(map[string][]*shardGroup),
		dead:   make(map[string]bool),
	}
	var live []*worker
	d.mu.Lock()
	for addr, w := range d.workers {
		if w.isDead() {
			sc.dead[addr] = true
		} else {
			live = append(live, w)
		}
	}
	for _, g := range groups {
		if _, ok := d.enqueueLocked(sc, g); !ok {
			sw.failGroup(g, "no live workers")
		}
	}
	booked := sc.outstanding > 0
	d.mu.Unlock()
	if !booked {
		return
	}

	var wg sync.WaitGroup
	for _, w := range live {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			d.runner(sw, sc, w)
		}(w)
	}
	wg.Wait()

	// Shards still queued once every runner returned: every worker died,
	// or the sweep was canceled. Their load is released either way, but
	// only a live sweep fails them; a canceled one leaves its cells
	// pending.
	d.mu.Lock()
	defer d.mu.Unlock()
	canceled := sw.Ctx.Err() != nil
	for addr, q := range sc.queues {
		for _, g := range q {
			d.retireLocked(sc, addr, g)
			if !canceled {
				sw.failGroup(g, "no live workers")
			}
		}
	}
}

// dispatchState is one sweep's shard scheduler, guarded by Dispatcher.mu.
type dispatchState struct {
	queues      map[string][]*shardGroup
	dead        map[string]bool
	outstanding int // groups queued or running, not yet resolved
}

// groupCells buckets pending cell indices into (workload, L2) shard
// groups, each keyed by its smallest cell hash for a deterministic ring
// position. Attack cells group by scenario with a kind prefix so an
// attack scenario can never share a shard with a like-named benchmark.
func groupCells(sw *csweep, pending []int) []*shardGroup {
	byBL := make(map[string]*shardGroup)
	var order []string
	for _, i := range pending {
		cs := sw.Cells[i]
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

// enqueueLocked books g onto the live worker with the least load, ties
// going to ring order from g's key, so an idle cluster places on the ring
// owner and a death re-books onto ring successors. It reports false when
// no live worker is left.
func (d *Dispatcher) enqueueLocked(sc *dispatchState, g *shardGroup) (string, bool) {
	owner := ""
	for _, addr := range d.ring.Successors(g.key) {
		if sc.dead[addr] || d.workers[addr].isDead() {
			continue
		}
		if owner == "" || d.load[addr] < d.load[owner] {
			owner = addr
		}
	}
	if owner == "" {
		return "", false
	}
	sc.queues[owner] = append(sc.queues[owner], g)
	sc.outstanding++
	d.load[owner] += len(g.idxs)
	return owner, true
}

// retireLocked takes g, booked on addr, off the books: it ended, or it
// leaves addr's queue.
func (d *Dispatcher) retireLocked(sc *dispatchState, addr string, g *shardGroup) {
	sc.outstanding--
	d.load[addr] -= len(g.idxs)
	d.cond.Broadcast()
}

// runner drains shards for one worker. It exits when its worker dies, the
// sweep is canceled, or no shard remains queued or running (a running
// shard may still re-queue work on failure, so idle runners wait instead
// of exiting).
func (d *Dispatcher) runner(sw *csweep, sc *dispatchState, w *worker) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !sc.dead[w.addr] && sc.outstanding > 0 && sw.Ctx.Err() == nil {
		g := d.takeLocked(sc, w)
		if g == nil {
			d.cond.Wait()
			continue
		}
		d.mu.Unlock()
		d.runGroup(sw, sc, w, g)
		d.mu.Lock()
	}
}

// takeLocked pops the next shard for w: the head of its own queue,
// unconditionally, so no shard is stranded; else, only while w has no
// load in any sweep, the head of the longest peer queue, whose load moves
// to w.
func (d *Dispatcher) takeLocked(sc *dispatchState, w *worker) *shardGroup {
	if q := sc.queues[w.addr]; len(q) > 0 {
		sc.queues[w.addr] = q[1:]
		return q[0]
	}
	if d.load[w.addr] > 0 || w.isDead() {
		return nil
	}
	victim, best := "", 0
	for a, q := range sc.queues {
		if len(q) > best {
			victim, best = a, len(q)
		}
	}
	if victim == "" {
		return nil
	}
	g := sc.queues[victim][0]
	sc.queues[victim] = sc.queues[victim][1:]
	d.load[victim] -= len(g.idxs)
	d.load[w.addr] += len(g.idxs)
	obsSteals.Add(1)
	return g
}

// runGroup dispatches one shard to w as a sub-sweep, pipes its event
// stream into the sweep's hub, acks each completed cell into the
// coordinator store, and on worker death re-books the unacked remainder.
func (d *Dispatcher) runGroup(sw *csweep, sc *dispatchState, w *worker, g *shardGroup) {
	obsShards.Add(1)
	sw.Write(obs.Record{Type: "shard_dispatch", RunID: sw.ID,
		Detail: fmt.Sprintf("%s/L2=%d (%d cells) -> %s attempt %d", g.bench, g.l2, len(g.idxs), w.addr, g.attempts+1)})

	unacked, died, errMsg := d.runGroupOnce(sw, w, g)
	if died && w.markDead() {
		obsWorkerDeaths.Add(1)
		obsWorkersAlive.Add(-1)
		sw.Degrade("worker " + w.addr + " died")
		d.cfg.Log.Printf("leakd-coord: worker %s died (%s); re-sharding", w.addr, errMsg)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.retireLocked(sc, w.addr, g)
	if !died {
		return
	}

	// Worker death: take it out of this sweep's eligible set and re-book
	// everything still queued for it, then this shard's unacked remainder.
	sw.Write(obs.Record{Type: "worker_death", RunID: sw.ID, Error: errMsg, Detail: w.addr})
	sc.dead[w.addr] = true
	stranded := sc.queues[w.addr]
	delete(sc.queues, w.addr)
	requeue := func(ng *shardGroup) {
		owner, ok := d.enqueueLocked(sc, ng)
		if !ok {
			sw.failGroup(ng, "no live workers")
			return
		}
		obsReshards.Add(1)
		sw.Write(obs.Record{Type: "shard_requeued", RunID: sw.ID,
			Detail: fmt.Sprintf("%s/L2=%d (%d cells) -> %s", ng.bench, ng.l2, len(ng.idxs), owner)})
	}
	// Queued (never-attempted) shards keep their attempt count.
	for _, qg := range stranded {
		d.retireLocked(sc, w.addr, qg)
		requeue(qg)
	}
	// This shard's unacked cells burn an attempt; exhausted retries fail.
	if len(unacked) > 0 {
		ng := &shardGroup{bench: g.bench, l2: g.l2, idxs: unacked, key: g.key, attempts: g.attempts + 1}
		if ng.attempts > d.cfg.ShardRetries {
			sw.failGroup(ng, fmt.Sprintf("worker died (%s); shard retries exhausted", errMsg))
		} else {
			requeue(ng)
		}
	}
}

// runGroupOnce runs one shard on one worker. It returns the cell indices
// that were not acked, whether the worker should be considered dead, and
// the transport error message when it is. Cells come back unacked from a
// live worker only when the sweep itself was canceled; they stay pending.
func (d *Dispatcher) runGroupOnce(sw *csweep, w *worker, g *shardGroup) (unacked []int, died bool, errMsg string) {
	req := api.SweepRequest{
		Instructions: sw.Instructions,
		Warmup:       sw.Warmup,
		Priority:     sw.Priority,
	}
	byKey := make(map[string]int, len(g.idxs)) // wire key -> sweep index
	for _, i := range g.idxs {
		wc := sw.Cells[i]
		req.Cells = append(req.Cells, wc)
		byKey[wc.Key()] = i
	}

	st, err := w.client.SubmitSweep(sw.Ctx, req)
	if err != nil {
		return sw.lost(w, g.idxs, err)
	}

	// Wait on the worker's event stream, piping it into the sweep's hub
	// live. Worker sweep_* lifecycle records are dropped (the coordinator
	// owns the sweep lifecycle); everything else — run_start, run_done,
	// store_hit, checkpoint_hit — flows through so the client sees
	// per-cell progress across the whole cluster in one stream.
	final, err := w.client.WatchSweep(sw.Ctx, st.ID, func(rec obs.Record) {
		if !strings.HasPrefix(rec.Type, "sweep_") {
			sw.Write(rec)
		}
	})
	if err != nil {
		return sw.lost(w, g.idxs, err)
	}
	if final.Started != nil {
		if wait := final.Started.Sub(final.Created); wait > 0 {
			obsQueueWait.Add(uint64(wait.Round(time.Millisecond).Milliseconds()))
		}
	}
	if final.State == api.StateCanceled {
		if sw.Ctx.Err() == nil {
			// The worker canceled the shard on its own (it is draining):
			// treat it like a death so the cells re-shard onto survivors.
			return g.idxs, true, "worker canceled shard (draining)"
		}
		return g.idxs, false, ""
	}
	if final.State == api.StateFailed {
		// The worker is alive and answered: the shard failed for real
		// (watchdog, harness error). Fail its cells honestly rather than
		// re-dispatching work that would fail the same way.
		msg := final.Error
		if msg == "" {
			msg = "worker sweep failed"
		}
		for _, i := range g.idxs {
			sw.fail(i, msg)
		}
		return nil, false, ""
	}

	// Completed (possibly with per-cell failures). Ack every done cell:
	// fetch its stored value from the worker and persist it into the
	// coordinator store (first-write-wins absorbs duplicates from steals
	// or re-shard races).
	acked := make(map[int]bool, len(g.idxs))
	for _, cellSt := range final.Cells {
		i, ok := byKey[cellSt.Key()]
		if !ok {
			continue
		}
		switch {
		case cellSt.State == "done" && cellSt.Hash != "":
			if sw.hashes[i] != "" && cellSt.Hash != sw.hashes[i] {
				sw.fail(i, fmt.Sprintf("worker returned hash %s, coordinator computed %s",
					cellSt.Hash, sw.hashes[i]))
				acked[i] = true // resolved (as a failure); not re-dispatchable
				continue
			}
			rec, err := w.client.Cell(sw.Ctx, cellSt.Hash)
			if err != nil {
				// Trouble on the ack fetch settles the rest of the group.
				return sw.lost(w, remainder(g.idxs, acked), err)
			}
			if perr := d.cfg.Store.Put(rec.Hash, rec.Key, rec.Value); perr != nil {
				sw.Degrade("store trouble: " + perr.Error())
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
			sw.fail(i, cellSt.Error)
			acked[i] = true
		}
	}
	sw.mu.Lock()
	sw.executed += final.Executed
	sw.storeHits += final.StoreHits
	sw.resumed += final.Resumed
	sw.mu.Unlock()
	// The worker's status omitted cells we sent: account them failed
	// rather than hanging the shard.
	for _, i := range remainder(g.idxs, acked) {
		sw.fail(i, "worker status omitted this cell")
	}
	return nil, false, ""
}

// lost settles the cells idxs of a shard whose call to w failed with err,
// in runGroupOnce's return shape. Our own cancellation is not the worker's
// fault: the cells stay pending. A 4xx is not a death either — the worker
// is alive and refused (a restarted worker answers 404 for a sweep it
// never saw) — and re-sharding would meet the same refusal, so the cells
// fail with the worker's message. Anything else (transport errors, 5xx,
// breaker fast-fail after retries) is a death: the cells re-shard.
func (sw *csweep) lost(w *worker, idxs []int, err error) (unacked []int, died bool, errMsg string) {
	if sw.Ctx.Err() != nil {
		return idxs, false, ""
	}
	var se *api.StatusError
	if errors.As(err, &se) && se.Code < 500 {
		for _, i := range idxs {
			sw.fail(i, fmt.Sprintf("worker %s refused the shard: %v", w.addr, err))
		}
		return nil, false, ""
	}
	return idxs, true, err.Error()
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

func (sw *csweep) fail(i int, msg string) {
	if msg == "" {
		msg = "cell failed"
	}
	sw.mu.Lock()
	if !sw.done[i] {
		sw.failed[i] = msg
	}
	sw.mu.Unlock()
}

func (sw *csweep) failGroup(g *shardGroup, msg string) {
	for _, i := range g.idxs {
		sw.fail(i, msg)
	}
}

// FetchCell is the federated read path's fallback for a cell the
// coordinator store lacks: it asks every live worker in ring order.
// Workers answer /v1/cells from their local store only, so there is no
// recursion.
func (d *Dispatcher) FetchCell(ctx context.Context, hash string) (json.RawMessage, bool, error) {
	for _, addr := range d.ring.Nodes() {
		w := d.workers[addr]
		if w == nil || w.isDead() {
			continue
		}
		if val, hit, err := w.client.FetchCell(ctx, hash); err == nil && hit {
			return val, true, nil
		}
	}
	return nil, false, nil
}
