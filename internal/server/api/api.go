// Package api defines the leakd daemon's wire types and the HTTP client
// used by leakbench's -remote mode. It is deliberately free of server
// internals so thin clients pull in only the protocol; the client also
// implements sim.RemoteRunner, which is how the whole leakbench figure
// pipeline runs against a daemon without knowing about HTTP.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/sim"
)

// KindAttack marks a timing-leakage attack cell on the wire. The empty
// kind is an energy cell — the only kind that existed before the security
// subsystem, kept implicit (omitempty) so pre-existing clients, requests
// and request hashes are untouched.
const KindAttack = "attack"

// Cell is one simulation cell in wire form. Technique uses the String
// form of leakctl.Technique ("none", "drowsy", "gated-vss", "rbb").
// Energy cells (Kind empty) name a benchmark; attack cells (Kind "attack")
// name an adversarial scenario instead.
type Cell struct {
	Kind      string `json:"kind,omitempty"`
	Bench     string `json:"bench,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	L2        int    `json:"l2_latency"`
	Technique string `json:"technique"`
	Interval  uint64 `json:"interval"`
}

// FromSpec converts a sim.CellSpec to wire form.
func FromSpec(cs sim.CellSpec) Cell {
	return Cell{Bench: cs.Bench, L2: cs.L2, Technique: cs.Technique.String(), Interval: cs.Interval}
}

// FromAttackSpec converts a sim.AttackSpec to wire form.
func FromAttackSpec(as sim.AttackSpec) Cell {
	return Cell{Kind: KindAttack, Scenario: as.Scenario, L2: as.L2,
		Technique: as.Technique.String(), Interval: as.Interval}
}

// Spec converts an energy wire cell back to a sim.CellSpec.
func (c Cell) Spec() (sim.CellSpec, error) {
	t, err := leakctl.ParseTechnique(c.Technique)
	if err != nil {
		return sim.CellSpec{}, err
	}
	return sim.CellSpec{Bench: c.Bench, L2: c.L2, Technique: t, Interval: c.Interval}, nil
}

// AttackSpec converts an attack wire cell back to a sim.AttackSpec.
func (c Cell) AttackSpec() (sim.AttackSpec, error) {
	t, err := leakctl.ParseTechnique(c.Technique)
	if err != nil {
		return sim.AttackSpec{}, err
	}
	return sim.AttackSpec{Scenario: c.Scenario, L2: c.L2, Technique: t, Interval: c.Interval}, nil
}

// Key identifies a wire cell, for matching statuses to the cells asked
// for. Attack keys carry the kind prefix and scenario so the two kinds can
// never collide; energy keys keep their historic form.
func (c Cell) Key() string {
	if c.Kind == KindAttack {
		return fmt.Sprintf("attack/%s/%d/%s/%d", c.Scenario, c.L2, strings.ToLower(c.Technique), c.Interval)
	}
	return fmt.Sprintf("%s/%d/%s/%d", c.Bench, c.L2, strings.ToLower(c.Technique), c.Interval)
}

// SweepRequest is the POST /v1/sweeps body. Cells lists explicit cells;
// the Benchmarks×Techniques×Intervals×L2Latencies cross product (plus
// optional per-benchmark baselines) is expanded server-side and unioned
// in. Instructions/Warmup of zero take the daemon's defaults.
type SweepRequest struct {
	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`

	Cells []Cell `json:"cells,omitempty"`

	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scenarios crosses attack scenarios with Techniques, Intervals and
	// L2Latencies into attack cells (kind "attack"), exactly as Benchmarks
	// does for energy cells.
	Scenarios   []string `json:"scenarios,omitempty"`
	Techniques  []string `json:"techniques,omitempty"`
	Intervals   []uint64 `json:"intervals,omitempty"`
	L2Latencies []int    `json:"l2_latencies,omitempty"`
	// IncludeBaselines adds an uncontrolled (technique "none") cell per
	// (benchmark, L2) of the cross product.
	IncludeBaselines bool `json:"include_baselines,omitempty"`

	// Priority is "interactive" or "bulk". Empty classifies by size:
	// sweeps of at most two cells are interactive.
	Priority string `json:"priority,omitempty"`
	// TimeoutS bounds the sweep end to end (queue time included), in
	// seconds. 0 means no deadline beyond the daemon's default.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// Sweep states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// Terminal reports whether a sweep state is final.
func Terminal(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCanceled
}

// CellStatus is one cell's progress within a sweep.
type CellStatus struct {
	Cell
	// Hash is the cell's content address, filled once known.
	Hash string `json:"hash,omitempty"`
	// State is "pending", "done" or "failed".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// SweepStatus is the GET /v1/sweeps/{id} body (also returned by submit).
type SweepStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Priority string `json:"priority"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Total     int `json:"total"`
	Completed int `json:"completed"`
	// Executed counts cells actually simulated by this daemon process;
	// StoreHits counts cells served from the content-addressed store;
	// Resumed counts cells restored from the sweep's harness checkpoint.
	Executed  int `json:"executed"`
	StoreHits int `json:"store_hits"`
	Resumed   int `json:"resumed"`
	Failed    int `json:"failed"`

	Error string `json:"error,omitempty"`
	// Degraded is non-empty when the sweep completed but its
	// infrastructure limped (store writes failing): every result was
	// produced and returned, but not all were persisted for reuse.
	Degraded string       `json:"degraded,omitempty"`
	Cells    []CellStatus `json:"cells,omitempty"`
}

// CellRecord is the GET /v1/cells/{hash} body: the canonical identity
// document and the stored sim.RunResult, byte-for-byte as first persisted.
type CellRecord struct {
	Hash  string          `json:"hash"`
	Key   json.RawMessage `json:"key,omitempty"`
	Value json.RawMessage `json:"value"`
}

// Health is the GET /healthz body. Status is tri-state: "ok", "degraded"
// (serving with Reasons explaining the limp; still HTTP 200) or
// "draining" (shutting down; HTTP 503).
type Health struct {
	Status           string   `json:"status"`
	Draining         bool     `json:"draining"`
	Reasons          []string `json:"reasons,omitempty"`
	QueueDepth       int      `json:"queue_depth"`
	SweepsInFlight   int      `json:"sweeps_inflight"`
	StoreCells       int      `json:"store_cells"`
	StoreQuarantined int      `json:"store_quarantined,omitempty"`
}

// ErrorBody is the JSON error envelope on non-2xx responses.
type ErrorBody struct {
	Error string `json:"error"`
}

// Client talks to a leakd daemon.
type Client struct {
	Base string
	HTTP *http.Client
	// PollInterval is how often WatchSweep polls the status when the
	// sweep's event stream fails or ends before the sweep is terminal
	// (zero = 250ms). The stream, not the poll, wakes a healthy wait.
	PollInterval time.Duration

	// Retry shapes transient-failure retries (zero value = defaults; see
	// RetryPolicy).
	Retry RetryPolicy
	// Breaker, when non-nil, fast-fails calls while the daemon looks
	// down. NewClient installs one; a zero-constructed Client has none.
	Breaker *Breaker
}

// NewClient builds a client for addr ("host:port" or a full http URL)
// with the default retry policy and a circuit breaker.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/"), HTTP: &http.Client{}, Breaker: NewBreaker()}
}

func (c *Client) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 250 * time.Millisecond
}

// do issues a request with the client's retry policy and circuit
// breaker: transient failures (transport errors, 5xx) back off and retry
// while ctx allows and count against the breaker; 429 and other 4xx
// return immediately (see retry.go for the classification). Safe to
// retry across the board because the daemon's sweep aliasing makes even
// POST /v1/sweeps idempotent.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	pol := c.Retry.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		if attempt > 1 {
			obsRetries.Add(1)
			select {
			case <-time.After(pol.backoff(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if !c.Breaker.Allow() {
			return fastFail(method, path)
		}
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			c.Breaker.Record(true)
			return nil
		}
		if ctx.Err() != nil {
			// The caller gave up; not the daemon's fault, so no breaker
			// penalty. If this call happened to be the half-open probe, its
			// outcome is simply unknown — Allow's half-open timeout admits
			// a replacement probe after the next cooldown.
			return err
		}
		var se *StatusError
		if errors.As(err, &se) && se.Code < 500 {
			// The daemon answered: 429 is admission control (alive, just
			// full — SubmitSweep's loop owns the wait), other 4xx are the
			// request's fault. Neither penalizes the breaker.
			c.Breaker.Record(true)
			return err
		}
		// Transport error or 5xx: transient by classification — penalize
		// the breaker and go around for the backoff.
		c.Breaker.Record(false)
		lastErr = err
	}
	return lastErr
}

// doOnce issues one request and decodes the JSON response into out,
// translating non-2xx statuses into errors carrying the server's message.
func (c *Client) doOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("api: marshal request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		msg := eb.Error
		if msg == "" {
			msg = resp.Status
		}
		return &StatusError{Code: resp.StatusCode, Msg: msg, RetryAfter: retryAfter(resp)}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s %s: %w", method, path, err)
	}
	return nil
}

// StatusError is a non-2xx response, carrying the Retry-After hint when
// the daemon sent one (admission control's 429).
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon returned %d: %s", e.Code, e.Msg)
}

func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// SubmitSweep submits a sweep, retrying while the daemon's queue is full
// (429 + Retry-After) until ctx expires. The honored Retry-After hint is
// capped against ctx's deadline, so a hostile or buggy hint can't make
// the client sleep past its own cancellation.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (SweepStatus, error) {
	for {
		var st SweepStatus
		err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &st)
		if err == nil {
			return st, nil
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
			return SweepStatus{}, err
		}
		delay := se.RetryAfter
		if delay <= 0 {
			delay = 2 * time.Second
		}
		if dl, ok := ctx.Deadline(); ok {
			remain := time.Until(dl)
			if remain <= 0 {
				return SweepStatus{}, context.DeadlineExceeded
			}
			if delay > remain {
				delay = remain
			}
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return SweepStatus{}, ctx.Err()
		}
	}
}

// Sweep fetches a sweep's status.
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// WaitSweep waits until the sweep reaches a terminal state or ctx
// expires; it is WatchSweep without a sink.
func (c *Client) WaitSweep(ctx context.Context, id string) (SweepStatus, error) {
	return c.WatchSweep(ctx, id, nil)
}

// WatchSweep waits for a sweep's verdict on its event stream: it hands
// each record to sink (when non-nil) until the stream ends, which the
// daemon does right after the terminal event, then reads the status once.
// The status is the authority, never the terminal event (the hub drops
// events for slow subscribers). When the stream fails, or ends before the
// sweep is terminal, WatchSweep falls back to polling the status every
// PollInterval until it is.
func (c *Client) WatchSweep(ctx context.Context, id string, sink func(obs.Record)) (SweepStatus, error) {
	if sink == nil {
		sink = func(obs.Record) {}
	}
	_ = c.StreamEvents(ctx, id, sink) // a failed stream only means polling
	if err := ctx.Err(); err != nil {
		return SweepStatus{}, err
	}
	for {
		st, err := c.Sweep(ctx, id)
		if err != nil {
			return SweepStatus{}, err
		}
		if Terminal(st.State) {
			return st, nil
		}
		select {
		case <-time.After(c.poll()):
		case <-ctx.Done():
			return SweepStatus{}, ctx.Err()
		}
	}
}

// Cell fetches one stored cell by content address.
func (c *Client) Cell(ctx context.Context, hash string) (CellRecord, error) {
	var rec CellRecord
	err := c.do(ctx, http.MethodGet, "/v1/cells/"+hash, nil, &rec)
	return rec, err
}

// Health fetches the daemon's health document.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// RunCells implements sim.RemoteRunner for energy cells: it submits the
// cells as one sweep (interactive when small), waits for completion and
// downloads each completed cell's stored result. Per-cell failures come
// back as RemoteCell.Err; a sweep that ends canceled or failed is a batch
// error.
func (c *Client) RunCells(ctx context.Context, instructions, warmup uint64, specs []sim.CellSpec) ([]sim.RemoteCell, error) {
	return runRemote[sim.CellSpec, sim.RunResult](ctx, c, SweepRequest{Instructions: instructions, Warmup: warmup}, specs, FromSpec)
}

// RunAttackCells implements sim.RemoteRunner for attack cells, exactly as
// RunCells does for energy cells. The sweep carries no instruction budget
// — attack runs are sized by their scenario, and their content addresses
// ignore the budget by construction.
func (c *Client) RunAttackCells(ctx context.Context, specs []sim.AttackSpec) ([]sim.RemoteOutcome[sim.AttackSpec, attack.Result], error) {
	return runRemote[sim.AttackSpec, attack.Result](ctx, c, SweepRequest{}, specs, FromAttackSpec)
}

// runRemote submits specs as the cells of req, waits for the sweep, and
// downloads each completed cell's stored result by content address.
func runRemote[P, R any](ctx context.Context, c *Client, req SweepRequest, specs []P, wire func(P) Cell) ([]sim.RemoteOutcome[P, R], error) {
	req.Cells = make([]Cell, len(specs))
	for i, sp := range specs {
		req.Cells[i] = wire(sp)
	}
	st, err := c.SubmitSweep(ctx, req)
	if err != nil {
		return nil, err
	}
	st, err = c.WaitSweep(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if st.State != StateCompleted {
		msg := st.Error
		if msg == "" {
			msg = "sweep ended " + st.State
		}
		return nil, fmt.Errorf("sweep %s: %s", st.ID, msg)
	}
	byKey := make(map[string]CellStatus, len(st.Cells))
	for _, cs := range st.Cells {
		byKey[cs.Key()] = cs
	}
	out := make([]sim.RemoteOutcome[P, R], 0, len(specs))
	for i, sp := range specs {
		rc := sim.RemoteOutcome[P, R]{Spec: sp}
		cs, ok := byKey[req.Cells[i].Key()]
		switch {
		case !ok:
			rc.Err = "daemon status omitted this cell"
		case cs.State == "done" && cs.Hash != "":
			rec, err := c.Cell(ctx, cs.Hash)
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(rec.Value, &rc.Result); err != nil {
				return nil, fmt.Errorf("api: decode cell %s: %w", cs.Hash, err)
			}
		default:
			rc.Err = cs.Error
			if rc.Err == "" {
				rc.Err = "cell ended in state " + cs.State
			}
		}
		out = append(out, rc)
	}
	return out, nil
}
