// Package harness supervises fleets of simulation runs. The experiment
// fan-out used to be a bare WaitGroup: one panicking worker took down the
// whole `leakbench -all` regeneration and lost every completed run. The
// supervisor wraps each run in a worker that
//
//   - recovers panics into structured RunError values (the sibling runs
//     keep going and the figure renders with the failed cell marked),
//   - enforces a per-run deadline and honours suite-wide context
//     cancellation (SIGINT drains cleanly),
//   - retries transient failures with capped exponential backoff, and
//   - hands each accepted result to a Settled hook before reporting it
//     done, so the caller can make it durable first (package sim writes
//     it to the content-addressed store, where an interrupted suite
//     resumes from instead of re-simulating hours of work).
//
// The package is generic over the result type so it stays free of
// simulation imports; package sim instantiates it with RunResult.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
)

// Job is one supervised unit of work. Key must be unique within a suite
// (it is the event identity); Benchmark and Technique are carried into
// RunError for reporting.
type Job[T any] struct {
	Key       string
	Benchmark string
	Technique string
	// Run executes the job. It is called with a context that carries the
	// per-run deadline and the attempt number (see Attempt); it must stop
	// promptly when the context is cancelled.
	Run func(ctx context.Context) (T, error)
}

// Result is the outcome of one job: either Value, or a non-nil Err.
type Result[T any] struct {
	Key   string
	Value T
	Err   *RunError
	// Attempts is the number of executions performed.
	Attempts int
	// Duration is the wall-clock time the job spent executing (all
	// attempts, including backoff sleeps); zero for jobs cancelled before
	// starting.
	Duration time.Duration
}

// RunError is the structured failure record for one job: what failed, how
// it failed (panic with stack, error, or deadline), and after how many
// attempts. It implements error.
type RunError struct {
	Key       string `json:"key"`
	Benchmark string `json:"benchmark,omitempty"`
	Technique string `json:"technique,omitempty"`
	// Err is the final failure in text form.
	Err string `json:"err"`
	// Panic and Stack are set when the failure was a recovered panic.
	Panic string `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Timeout marks a per-run deadline expiry; Canceled marks suite-wide
	// cancellation (the run never got a fair chance).
	Timeout  bool `json:"timeout,omitempty"`
	Canceled bool `json:"canceled,omitempty"`
	Attempts int  `json:"attempts"`
}

// Error implements error.
func (e *RunError) Error() string {
	kind := "error"
	switch {
	case e.Panic != "":
		kind = "panic"
	case e.Timeout:
		kind = "timeout"
	case e.Canceled:
		kind = "canceled"
	}
	return fmt.Sprintf("run %s failed (%s after %d attempt(s)): %s", e.Key, kind, e.Attempts, e.Err)
}

// PanicError is the error produced when a worker recovers a panic.
type PanicError struct {
	Value string
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return "panic: " + e.Value }

// permanentError marks a failure that retrying cannot fix (e.g. an invalid
// configuration rejected by validation).
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so the supervisor fails the job immediately instead
// of retrying. Use it for deterministic failures such as validation
// errors.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was wrapped with Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// attemptCtxKey carries the attempt number in the run context.
type attemptCtxKey struct{}

// Attempt returns the zero-based attempt number carried by a run context,
// or 0 outside a supervised run. Jobs use it to coordinate with a
// deterministic fault injector.
func Attempt(ctx context.Context) int {
	n, _ := ctx.Value(attemptCtxKey{}).(int)
	return n
}

// workerCtxKey carries the per-worker state in the run context.
type workerCtxKey struct{}

// WorkerValue returns the value Config.WorkerState produced for the worker
// executing this run, or nil outside a supervised run (or when no
// WorkerState was configured). Jobs use it for reusable scratch state —
// simulator components reset between runs instead of reallocated.
func WorkerValue(ctx context.Context) any {
	return ctx.Value(workerCtxKey{})
}

// Config configures a Supervisor.
type Config[T any] struct {
	// Workers bounds concurrent job execution (default 1).
	Workers int
	// Timeout is the per-attempt deadline (0 = none).
	Timeout time.Duration
	// MaxRetries is the number of re-executions after a failed first
	// attempt (0 = fail immediately).
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles per retry
	// and is capped at MaxBackoff. Defaults: 100ms capped at 2s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Injector, when non-nil, injects faults into attempts (testing).
	Injector faultinject.Injector
	// Check validates a produced value before it is accepted; a non-nil
	// return is treated as a retryable run failure (e.g. NaN energy).
	Check func(T) error
	// Settled, when non-nil, receives each accepted value — after Check,
	// before the job's run_done event — on the worker that produced it.
	Settled func(key string, v T)
	// Events, when non-nil, receives structured trace events (run_start,
	// run_retry, run_fault, run_done, run_error) keyed by the job Key.
	// Outcome counters in the obs registry are updated regardless.
	Events EventSink
	// WorkerState, when non-nil, is invoked once per worker goroutine when
	// the pool starts; the returned value rides in every run context on
	// that worker (see WorkerValue). The value is confined to its worker,
	// so jobs may mutate it without locking.
	WorkerState func() any
}

// Supervisor executes batches of jobs under the configured discipline.
type Supervisor[T any] struct {
	cfg Config[T]
}

// New builds a supervisor. The zero Config runs jobs serially with no
// deadline and no retries — but still recovers panics.
func New[T any](cfg Config[T]) *Supervisor[T] {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return &Supervisor[T]{cfg: cfg}
}

// Run executes the jobs and returns one Result per job, in job order
// regardless of completion order. It never returns early: when ctx is
// cancelled, in-flight jobs are drained (their contexts are cancelled and
// they report Canceled errors) and queued jobs are failed without
// starting. Completed results are always retained.
//
// Execution uses a fixed pool of Config.Workers goroutines pulling jobs
// in order; the pool gives each worker a stable identity for WorkerState
// reuse and busy-time accounting.
func (s *Supervisor[T]) Run(ctx context.Context, jobs []Job[T]) []Result[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := min(s.cfg.Workers, len(jobs))
	obsWorkersGauge.Set(int64(workers))
	queue := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			wctx := ctx
			if s.cfg.WorkerState != nil {
				wctx = context.WithValue(ctx, workerCtxKey{}, s.cfg.WorkerState())
			}
			var busy time.Duration
			for i := range queue {
				job := jobs[i]
				if ctx.Err() != nil {
					// Still queued when the suite was cancelled: fail
					// without starting.
					results[i] = Result[T]{Key: job.Key, Err: s.runError(job, ctx.Err(), 0)}
					continue
				}
				start := time.Now()
				results[i] = s.runJob(wctx, job)
				results[i].Duration = time.Since(start)
				busy += results[i].Duration
			}
			obsWorkerBusy.Add(uint64(busy.Milliseconds()))
			workerBusyGauge(w).Add(busy.Milliseconds())
		}(w)
	}
	for i := range jobs {
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results
}

// runJob is the retry loop for one job.
func (s *Supervisor[T]) runJob(ctx context.Context, job Job[T]) Result[T] {
	var lastErr error
	attempts := 0
	s.emit(obs.Record{Type: "run_start", RunID: job.Key})
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		attempts = attempt + 1
		v, err := s.attempt(ctx, job, attempt)
		if err == nil && s.cfg.Check != nil {
			err = s.cfg.Check(v)
		}
		if err == nil {
			if s.cfg.Settled != nil {
				s.cfg.Settled(job.Key, v)
			}
			obsRunsCompleted.Add(1)
			s.emit(obs.Record{Type: "run_done", RunID: job.Key, Attempt: attempts})
			return Result[T]{Key: job.Key, Value: v, Attempts: attempts}
		}
		lastErr = err
		var pe *PanicError
		if errors.As(err, &pe) {
			obsPanics.Add(1)
		}
		if IsPermanent(err) || attempt >= s.cfg.MaxRetries || ctx.Err() != nil {
			break
		}
		obsRetries.Add(1)
		s.emit(obs.Record{Type: "run_retry", RunID: job.Key, Attempt: attempts, Error: err.Error()})
		if !sleep(ctx, backoff(s.cfg.Backoff, s.cfg.MaxBackoff, attempt)) {
			break
		}
	}
	re := s.runError(job, lastErr, attempts)
	obsRunsFailed.Add(1)
	s.emit(obs.Record{Type: "run_error", RunID: job.Key, Attempt: attempts, Error: re.Error()})
	return Result[T]{Key: job.Key, Err: re}
}

// attempt executes the job once, converting a panic into a PanicError and
// applying the per-attempt deadline and fault injection.
func (s *Supervisor[T]) attempt(ctx context.Context, job Job[T], n int) (v T, err error) {
	runCtx := context.WithValue(ctx, attemptCtxKey{}, n)
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, s.cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	if s.cfg.Injector != nil {
		decision := s.cfg.Injector.Decide(job.Key, n)
		if decision != faultinject.FaultNone {
			obsFaults.Add(1)
			s.emit(obs.Record{Type: "run_fault", RunID: job.Key, Attempt: n + 1, Detail: decision.String()})
		}
		switch decision {
		case faultinject.FaultPanic:
			panic(fmt.Sprintf("faultinject: injected panic into %s (attempt %d)", job.Key, n))
		case faultinject.FaultError:
			return v, fmt.Errorf("faultinject: injected error into %s (attempt %d)", job.Key, n)
		case faultinject.FaultStall:
			select {
			case <-runCtx.Done():
				return v, runCtx.Err()
			case <-time.After(5 * time.Second):
				// Backstop so a stall without a configured deadline
				// cannot hang the suite forever.
				return v, errors.New("faultinject: stalled 5s with no deadline")
			}
		}
	}
	return job.Run(runCtx)
}

// runError builds the structured failure record for a job.
func (s *Supervisor[T]) runError(job Job[T], err error, attempts int) *RunError {
	re := &RunError{
		Key:       job.Key,
		Benchmark: job.Benchmark,
		Technique: job.Technique,
		Attempts:  attempts,
	}
	if err == nil {
		err = errors.New("unknown failure")
	}
	re.Err = err.Error()
	var pe *PanicError
	if errors.As(err, &pe) {
		re.Panic = pe.Value
		re.Stack = pe.Stack
	}
	if errors.Is(err, context.DeadlineExceeded) {
		re.Timeout = true
	}
	if errors.Is(err, context.Canceled) {
		re.Canceled = true
	}
	return re
}

// backoff returns the capped exponential delay before retry n (0-based:
// the delay after the first failed attempt).
func backoff(base, cap time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// sleep waits for d, returning false if ctx was cancelled first.
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
