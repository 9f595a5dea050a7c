package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
	"hotleakage/internal/store"
)

// Ladder outcome metrics. obsCellsPlanned counts the cells planned so far;
// the sampler pairs it with the outcome counters and the store hits for
// progress/ETA. The store and federation counters split cells served from
// the local store or the peer's view from those resolved further down,
// and obsRemoteDegraded counts batches that fell back from a sick remote
// daemon to the local rungs (RemoteFallback). The attempt loop's counters
// — cells completed and failed, retries, injected faults and recovered
// panics — keep their harness_ names.
var (
	obsCellsPlanned     = obs.Default.Gauge(obs.GaugeCellsPlanned)
	obsStoreHits        = obs.Default.Counter(obs.MetricStoreHits)
	obsStoreMisses      = obs.Default.Counter(obs.MetricStoreMisses)
	obsFederationHits   = obs.Default.Counter(obs.MetricFederationHits)
	obsFederationMisses = obs.Default.Counter(obs.MetricFederationMisses)
	obsRemoteDegraded   = obs.Default.Counter(obs.MetricRemoteDegraded)
	obsRunsCompleted    = obs.Default.Counter(obs.MetricRunsCompleted)
	obsRunsFailed       = obs.Default.Counter(obs.MetricRunsFailed)
	obsRetries          = obs.Default.Counter("harness_retries_total")
	obsFaults           = obs.Default.Counter("harness_faults_injected_total")
	obsPanics           = obs.Default.Counter("harness_panics_total")
)

// The delay before a cell's next attempt starts at retryBackoff and
// doubles per failed attempt, capped at retryBackoffCap.
const (
	retryBackoff    = 100 * time.Millisecond
	retryBackoffCap = 2 * time.Second
)

// cellKind is what one kind of cell supplies to the resolution ladder. P
// is the kind's public spec (CellSpec, AttackSpec), S the resolved spec
// the ladder carries and R the result. Everything else — memo, remote
// delegation with fallback, store and peer lookup, the attempt loop with
// its retries, faults and events, the store write as each cell settles —
// is the ladder's, once for every kind.
//
// A new kind supplies an identity document and a way to run one attempt
// at a set of cells (identity and run), a check on its result type, and
// one-liners mapping its spec to the public form and to its RemoteRunner
// method.
type cellKind[P cellSpec, S, R any] interface {
	// public returns the cell's public coordinates.
	public(S) P
	// identity returns the canonical document the cell is
	// content-addressed by.
	identity(S) any
	// unaddressed returns why this Experiments' cells of the kind have no
	// faithful content address or wire name, or nil; the ladder then fails
	// them rather than consult or write the store, a peer or a remote.
	unaddressed() error
	// check rejects a corrupt result before it is memoized or stored; a
	// stored or fetched record that fails it is a miss.
	check(R) error
	// run makes one attempt at every cell of tries: it calls begin on each
	// cell as it starts and end as it ends, with its result (which has
	// passed check) or its error set. A cell applies the fault its try
	// carries, and a panic fails its own cell as a harness.PanicError.
	run(ctx context.Context, tries []*try[S, R], begin, end func(*try[S, R]))
	// remote delegates cells to Experiments.Remote. A cell the wire
	// cannot name faithfully comes back failed instead of shipped.
	remote(ctx context.Context, specs []S) ([]RemoteOutcome[P, R], error)
}

// cellSpec is a kind's public spec: Key is its run key (the memo and
// event identity) and labels name its workload and technique in failure
// records.
type cellSpec interface {
	Key() string
	labels() (name, technique string)
}

// try is one attempt at one cell: the attempt number (0 first) and the
// fault the Injector scheduled for it going in, its result or error coming
// out.
type try[S, R any] struct {
	sp      S
	attempt int
	fault   faultinject.Fault
	res     R
	err     error
}

// Outcome is one cell's result from RunCells or RunAttackCells: the
// content address and value on success, or the structured failure.
type Outcome[P, R any] struct {
	Spec P
	// Key is the run key (the memo and event identity).
	Key string
	// Hash is the cell's content address (empty when the cell failed).
	Hash   string
	Result R
	// Err is non-nil when the cell failed; Result is then meaningless.
	Err *harness.RunError
}

// RemoteOutcome is one cell's outcome as reported by a remote daemon.
type RemoteOutcome[P, R any] struct {
	Spec   P
	Result R
	// Err is non-empty when the cell failed remotely.
	Err string
}

// RemoteRunner executes cells on a remote leakd daemon. When
// Experiments.Remote is set, pending cells of either kind are delegated
// to it instead of being simulated here — the CLI becomes a thin client
// and every figure renders from remotely simulated (or store-served)
// results. Implementations live outside this package (internal/server/api)
// to keep sim free of transport concerns.
type RemoteRunner interface {
	RunCells(ctx context.Context, instructions, warmup uint64, specs []CellSpec) ([]RemoteCell, error)
	RunAttackCells(ctx context.Context, specs []AttackSpec) ([]RemoteOutcome[AttackSpec, attack.Result], error)
}

// CellFetcher reads one cell's stored result from a federated store view
// by content address: a clean miss is (nil, false, nil); an error means
// the peer was unreachable or answered garbage, and the caller decides
// whether to degrade (the resolution ladder treats it as a miss and
// simulates). internal/server/api.Client implements it over GET
// /v1/cells/{hash}; the cluster coordinator implements the serving side
// by consulting its own store and then every live worker.
type CellFetcher interface {
	FetchCell(ctx context.Context, hash string) (json.RawMessage, bool, error)
}

// ladder resolves the cells of one kind, top rung first: in-process memo,
// remote daemon (Remote), content-addressed store and federated peer, and
// the attempt loop (simulate). The store is the one durable record: each
// cell the loop simulates is written to it as it settles (settle), before
// it counts as executed or is reported done. Experiments holds one ladder per kind; e.mu guards the memo and
// the failure map.
type ladder[P cellSpec, S, R any] struct {
	e        *Experiments
	kind     cellKind[P, S, R]
	runs     map[string]R
	failures map[string]*harness.RunError
}

func newLadder[P cellSpec, S, R any](e *Experiments, kind cellKind[P, S, R]) *ladder[P, S, R] {
	return &ladder[P, S, R]{e: e, kind: kind, runs: make(map[string]R), failures: make(map[string]*harness.RunError)}
}

func (l *ladder[P, S, R]) key(sp S) string { return l.kind.public(sp).Key() }

// fail builds the failure record of a cell the ladder gives up on itself.
func (l *ladder[P, S, R]) fail(p P, msg string) *harness.RunError {
	name, tech := p.labels()
	return &harness.RunError{Key: p.Key(), Benchmark: name, Technique: tech, Err: msg}
}

// failAll memoizes one failure for every pending cell.
func (l *ladder[P, S, R]) failAll(pending []S, msg string, canceled bool) {
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	for _, sp := range pending {
		re := l.fail(l.kind.public(sp), msg)
		re.Canceled = canceled
		l.failures[re.Key] = re
	}
}

// resolve runs specs down the ladder, memoizing results and failures.
// Cells already resolved (cached or failed) are skipped; failed keys are
// not retried within this process. A later process over the same store
// resumes: it simulates only what no earlier one stored.
func (l *ladder[P, S, R]) resolve(specs []S) error {
	e := l.e
	e.mu.Lock()
	var pending []S
	seen := make(map[string]bool)
	for _, sp := range specs {
		k := l.key(sp)
		if seen[k] {
			continue
		}
		seen[k] = true
		_, ok := l.runs[k]
		_, failed := l.failures[k]
		if !ok && !failed {
			pending = append(pending, sp)
		}
	}
	e.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	// Progress accounting for the sampler's ETA: every pending cell is one
	// planned cell; the attempt loop's outcome counters and the store hits
	// record completions.
	obsCellsPlanned.Add(int64(len(pending)))

	if e.Store != nil || e.Peer != nil || e.Remote != nil {
		if err := l.kind.unaddressed(); err != nil {
			l.failAll(pending, err.Error(), false)
			return nil
		}
	}
	if e.Remote != nil {
		err := l.delegate(pending)
		if err == nil {
			return nil
		}
		if !e.RemoteFallback || e.ctx().Err() != nil {
			// Terminal for this batch: memoize the batch error per cell so
			// figures render ERR and FailureSummary makes the command exit
			// non-zero — a silent 0 would misreport a dead daemon as success.
			l.failAll(pending, err.Error(), e.ctx().Err() != nil)
			return err
		}
		// The daemon is sick (or the breaker is open): degrade this batch
		// to the local ladder rather than stalling the whole figure run.
		obsRemoteDegraded.Add(1)
		l.emit(obs.Record{Type: "remote_degraded", Error: err.Error(),
			Detail: fmt.Sprintf("%d cells fall back to local resolution", len(pending))})
	}

	if e.Store != nil || e.Peer != nil {
		if pending = l.fromStore(pending); len(pending) == 0 {
			return nil
		}
	}
	l.simulate(pending)
	return nil
}

// simulate is the attempt loop, the one way the ladder simulates cells.
// Each round hands the pending cells to the kind's run and settles every
// success as it ends. A cell that failed retryably goes round again after
// a capped backoff until MaxRetries runs out, so no cell runs more than
// MaxRetries+1 times. The loop alone asks the Injector, once per cell and
// attempt, and alone writes the run_* events, the outcome counters and
// the failure records.
func (l *ladder[P, S, R]) simulate(pending []S) {
	ctx := l.e.ctx()
	tries := make([]*try[S, R], len(pending))
	for i, sp := range pending {
		tries[i] = l.schedule(sp, 0)
	}
	for len(tries) > 0 {
		l.kind.run(ctx, tries, l.begin, l.end)
		var again []*try[S, R]
		for _, t := range tries {
			switch {
			case t.err == nil:
			case t.attempt < l.e.MaxRetries && retryable(ctx, t.err):
				obsRetries.Add(1)
				l.emit(obs.Record{Type: "run_retry", RunID: l.key(t.sp), Attempt: t.attempt + 1, Error: t.err.Error()})
				again = append(again, t)
			default:
				l.giveUp(t)
			}
		}
		tries = tries[:0]
		if len(again) > 0 && !sleep(ctx, backoff(again[0].attempt)) {
			// Canceled during the backoff: each cell keeps its last error.
			for _, t := range again {
				l.giveUp(t)
			}
			return
		}
		for _, t := range again {
			tries = append(tries, l.schedule(t.sp, t.attempt+1))
		}
	}
}

// schedule makes attempt n at a cell, with the fault the Injector decides
// for it.
func (l *ladder[P, S, R]) schedule(sp S, n int) *try[S, R] {
	t := &try[S, R]{sp: sp, attempt: n}
	if l.e.Injector != nil {
		t.fault = l.e.Injector.Decide(l.key(sp), n)
	}
	return t
}

// retryable reports whether another attempt could end otherwise: an
// invalid configuration never builds, and a canceled suite runs nothing
// more.
func retryable(ctx context.Context, err error) bool {
	return ctx.Err() == nil && !errors.Is(err, ErrInvalidConfig) && !errors.Is(err, context.Canceled)
}

// begin writes a cell's run_start at its first attempt, and a run_fault
// when the attempt carries an injected fault.
func (l *ladder[P, S, R]) begin(t *try[S, R]) {
	k := l.key(t.sp)
	if t.attempt == 0 {
		l.emit(obs.Record{Type: "run_start", RunID: k})
	}
	if t.fault != faultinject.FaultNone {
		obsFaults.Add(1)
		l.emit(obs.Record{Type: "run_fault", RunID: k, Attempt: t.attempt + 1, Detail: t.fault.String()})
	}
}

// end settles a cell's successful attempt, then reports it done.
func (l *ladder[P, S, R]) end(t *try[S, R]) {
	if t.err != nil {
		var pe *harness.PanicError
		if errors.As(t.err, &pe) {
			obsPanics.Add(1)
		}
		return
	}
	l.settle(t.sp, t.res)
	obsRunsCompleted.Add(1)
	l.emit(obs.Record{Type: "run_done", RunID: l.key(t.sp), Attempt: t.attempt + 1})
}

// giveUp memoizes the failure record of a cell from its last attempt.
func (l *ladder[P, S, R]) giveUp(t *try[S, R]) {
	re := l.fail(l.kind.public(t.sp), t.err.Error())
	re.Attempts = t.attempt + 1
	var pe *harness.PanicError
	if errors.As(t.err, &pe) {
		re.Panic, re.Stack = pe.Value, pe.Stack
	}
	re.Timeout = errors.Is(t.err, context.DeadlineExceeded)
	re.Canceled = errors.Is(t.err, context.Canceled)
	obsRunsFailed.Add(1)
	l.emit(obs.Record{Type: "run_error", RunID: re.Key, Attempt: re.Attempts, Error: re.Error()})
	l.e.mu.Lock()
	l.failures[re.Key] = re
	l.e.mu.Unlock()
}

// emit writes a trace event when Events is set.
func (l *ladder[P, S, R]) emit(rec obs.Record) {
	if l.e.Events != nil {
		l.e.Events.Write(rec)
	}
}

// backoff is the delay before retrying a cell whose attempt n failed.
func backoff(n int) time.Duration {
	d := retryBackoff
	for i := 0; i < n && d < retryBackoffCap; i++ {
		d *= 2
	}
	return min(d, retryBackoffCap)
}

// sleep waits for d, returning false if ctx was canceled first.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// fanOut calls do on every item from at most workers goroutines, in item
// order, and returns when all are done.
func fanOut[T any](workers int, items []T, do func(T)) {
	queue := make(chan T)
	var wg sync.WaitGroup
	for range min(workers, len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				do(it)
			}
		}()
	}
	for _, it := range items {
		queue <- it
	}
	close(queue)
	wg.Wait()
}

// settle records one cell the attempt loop simulated: written to the store
// first, then memoized and counted, so a cell that counts as executed or
// is reported done is already durable. Store trouble degrades to Err,
// never to a lost result.
func (l *ladder[P, S, R]) settle(sp S, r R) {
	e := l.e
	if e.Store != nil {
		id := l.kind.identity(sp)
		h, err := store.CanonicalHash(id)
		if err == nil {
			err = e.Store.Put(h, id, r)
		}
		if err != nil {
			e.keepStoreErr(err)
		}
	}
	e.mu.Lock()
	l.runs[l.key(sp)] = r
	e.executed++
	e.mu.Unlock()
}

// delegate resolves pending cells through the remote daemon, memoizing
// results and per-cell failures exactly as the local rungs would: a
// result that fails the kind's check fails its own cell. A
// transport-level failure fails the whole batch (there is nothing partial
// to keep).
func (l *ladder[P, S, R]) delegate(pending []S) error {
	specs := make([]P, len(pending))
	for i, sp := range pending {
		specs[i] = l.kind.public(sp)
	}
	cells, err := l.kind.remote(l.e.ctx(), pending)
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	byKey := make(map[string]RemoteOutcome[P, R], len(cells))
	for _, c := range cells {
		byKey[c.Spec.Key()] = c
	}
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	for _, p := range specs {
		k := p.Key()
		c, ok := byKey[k]
		switch {
		case !ok:
			l.failures[k] = l.fail(p, "remote daemon returned no result for this cell")
		case c.Err != "":
			l.failures[k] = l.fail(p, c.Err)
		default:
			if err := l.kind.check(c.Result); err != nil {
				l.failures[k] = l.fail(p, "remote daemon returned a rejected result: "+err.Error())
				continue
			}
			l.runs[k] = c.Result
			l.e.remoted++
		}
	}
	return nil
}

// decode parses and validates a stored or fetched result.
func (l *ladder[P, S, R]) decode(raw json.RawMessage) (R, bool) {
	var r R
	return r, json.Unmarshal(raw, &r) == nil && l.kind.check(r) == nil
}

// fromStore serves pending cells from the content-addressed store,
// returning the cells that still need execution. A stored value that fails
// to decode or check is a miss and re-executes (first-write-wins means it
// is never overwritten, but the caller still gets a fresh result). Cells
// that miss the local store consult the federated Peer when one is
// configured.
func (l *ladder[P, S, R]) fromStore(pending []S) []S {
	e := l.e
	rest := pending[:0]
	for _, sp := range pending {
		id := l.kind.identity(sp)
		h, err := store.CanonicalHash(id)
		if err != nil {
			rest = append(rest, sp)
			continue
		}
		r, ok := l.fromLocal(h)
		federated := false
		if !ok && e.Peer != nil {
			r, ok = l.fromPeer(h, id)
			federated = ok
		}
		if !ok {
			obsStoreMisses.Add(1)
			rest = append(rest, sp)
			continue
		}
		obsStoreHits.Add(1)
		k := l.key(sp)
		e.mu.Lock()
		l.runs[k] = r
		e.storeHits++
		e.mu.Unlock()
		rec := obs.Record{Type: "store_hit", RunID: k}
		if federated {
			rec.Detail = "federated"
		}
		l.emit(rec)
	}
	return rest
}

// fromLocal reads one cell from the local store.
func (l *ladder[P, S, R]) fromLocal(h string) (R, bool) {
	var r R
	if l.e.Store == nil {
		return r, false
	}
	rec, found, err := l.e.Store.Get(h)
	if err != nil {
		l.e.keepStoreErr(err)
		return r, false
	}
	if !found {
		return r, false
	}
	return l.decode(rec.Value)
}

// fromPeer resolves one cell from the federated store view. A hit is
// validated exactly like a local record and persisted into the local
// store (first-write-wins makes a concurrent local compute harmless). Any
// peer trouble — unreachable, a miss, a record that fails validation —
// degrades to a local miss; federation never fails a cell.
func (l *ladder[P, S, R]) fromPeer(h string, id any) (R, bool) {
	e := l.e
	var r R
	raw, ok, err := e.Peer.FetchCell(e.ctx(), h)
	if err == nil && ok {
		r, ok = l.decode(raw)
	}
	if err != nil || !ok {
		obsFederationMisses.Add(1)
		return r, false
	}
	obsFederationHits.Add(1)
	if e.Store != nil {
		if perr := e.Store.Put(h, id, r); perr != nil {
			e.keepStoreErr(perr)
		}
	}
	return r, true
}

// get returns one cell's result, resolving it first if needed. A failed
// cell returns its memoized failure instead of re-executing.
func (l *ladder[P, S, R]) get(sp S) (R, error) {
	var zero R
	if err := l.resolve([]S{sp}); err != nil {
		return zero, err
	}
	k := l.key(sp)
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	if r, ok := l.runs[k]; ok {
		return r, nil
	}
	if fe, failed := l.failures[k]; failed {
		return zero, fe
	}
	return zero, fmt.Errorf("run %s produced no result", k)
}

// outcomes resolves an explicit list of public specs and reports each one
// in order. resolveSpec maps a spec to the ladder's form; a spec it
// rejects (an unknown name) fails alone, as does any cell the ladder could
// not produce — individual failures are per-cell errors, not a batch
// error.
func (l *ladder[P, S, R]) outcomes(specs []P, resolveSpec func(P) (S, error)) ([]Outcome[P, R], error) {
	outs := make([]Outcome[P, R], len(specs))
	sps := make([]S, len(specs))
	var run []S
	for i, p := range specs {
		outs[i].Spec, outs[i].Key = p, p.Key()
		sp, err := resolveSpec(p)
		if err != nil {
			outs[i].Err = l.fail(p, err.Error())
			continue
		}
		sps[i] = sp
		run = append(run, sp)
	}
	if err := l.resolve(run); err != nil {
		return nil, err
	}
	l.e.mu.Lock()
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		if r, ok := l.runs[o.Key]; ok {
			o.Result = r
		} else if fe, failed := l.failures[o.Key]; failed {
			o.Err = fe
		} else {
			o.Err = l.fail(o.Spec, "cell produced no result")
		}
	}
	l.e.mu.Unlock()
	// Content addresses outside the lock: identities read the machine
	// memo, which takes it.
	for i := range outs {
		if outs[i].Err == nil {
			if h, err := store.CanonicalHash(l.kind.identity(sps[i])); err == nil {
				outs[i].Hash = h
			}
		}
	}
	return outs, nil
}
