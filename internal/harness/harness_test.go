package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
)

// job builds a trivial job returning its key length.
func job(key string, fn func(ctx context.Context) (int, error)) Job[int] {
	return Job[int]{Key: key, Benchmark: key, Technique: "t", Run: fn}
}

func TestPanicIsRecoveredAndSiblingsSurvive(t *testing.T) {
	s := New(Config[int]{Workers: 4})
	jobs := []Job[int]{
		job("a", func(context.Context) (int, error) { return 1, nil }),
		job("boom", func(context.Context) (int, error) { panic("kaput") }),
		job("c", func(context.Context) (int, error) { return 3, nil }),
	}
	res := s.Run(context.Background(), jobs)
	if res[0].Err != nil || res[0].Value != 1 || res[2].Err != nil || res[2].Value != 3 {
		t.Fatalf("sibling results lost: %+v", res)
	}
	re := res[1].Err
	if re == nil {
		t.Fatal("panic not converted to RunError")
	}
	if re.Panic != "kaput" || re.Stack == "" || re.Benchmark != "boom" {
		t.Fatalf("RunError missing panic detail: %+v", re)
	}
	if !strings.Contains(re.Error(), "panic") {
		t.Fatalf("Error() = %q", re.Error())
	}
}

func TestResultsInJobOrder(t *testing.T) {
	s := New(Config[int]{Workers: 8})
	var jobs []Job[int]
	for i := 0; i < 40; i++ {
		i := i
		jobs = append(jobs, job(fmt.Sprintf("j%02d", i), func(context.Context) (int, error) {
			time.Sleep(time.Duration(40-i) * 100 * time.Microsecond) // finish out of order
			return i, nil
		}))
	}
	res := s.Run(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil || r.Value != i {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	var calls atomic.Int32
	s := New(Config[int]{MaxRetries: 2, Backoff: time.Millisecond})
	res := s.Run(context.Background(), []Job[int]{
		job("flaky", func(ctx context.Context) (int, error) {
			if calls.Add(1) < 3 {
				return 0, errors.New("transient")
			}
			if Attempt(ctx) != 2 {
				return 0, fmt.Errorf("attempt counter = %d, want 2", Attempt(ctx))
			}
			return 42, nil
		}),
	})
	if res[0].Err != nil || res[0].Value != 42 || res[0].Attempts != 3 {
		t.Fatalf("retry did not recover: %+v", res[0])
	}
}

func TestPermanentFailureSkipsRetry(t *testing.T) {
	var calls atomic.Int32
	s := New(Config[int]{MaxRetries: 5, Backoff: time.Millisecond})
	res := s.Run(context.Background(), []Job[int]{
		job("bad-config", func(context.Context) (int, error) {
			calls.Add(1)
			return 0, Permanent(errors.New("zero sets"))
		}),
	})
	if res[0].Err == nil || calls.Load() != 1 {
		t.Fatalf("permanent failure retried %d times: %+v", calls.Load(), res[0])
	}
}

func TestPerRunDeadline(t *testing.T) {
	s := New(Config[int]{Timeout: 10 * time.Millisecond})
	res := s.Run(context.Background(), []Job[int]{
		job("slow", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}),
	})
	if res[0].Err == nil || !res[0].Err.Timeout {
		t.Fatalf("deadline not enforced: %+v", res[0])
	}
}

func TestSuiteCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	s := New(Config[int]{Workers: 1})
	go func() {
		<-started
		cancel()
	}()
	var once atomic.Bool
	res := s.Run(ctx, []Job[int]{
		job("running", func(ctx context.Context) (int, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			<-ctx.Done()
			return 0, ctx.Err()
		}),
		job("queued", func(context.Context) (int, error) { return 2, nil }),
	})
	if res[0].Err == nil || !res[0].Err.Canceled {
		t.Fatalf("in-flight run not marked canceled: %+v", res[0])
	}
	if res[1].Err == nil {
		// The queued job may have slipped in before cancel on a fast
		// machine; only its completion or cancellation are acceptable.
		if res[1].Value != 2 {
			t.Fatalf("queued job lost: %+v", res[1])
		}
	}
}

func TestCheckRejectsBadValues(t *testing.T) {
	var calls atomic.Int32
	s := New(Config[int]{
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		Check: func(v int) error {
			if v < 0 {
				return errors.New("negative")
			}
			return nil
		},
	})
	res := s.Run(context.Background(), []Job[int]{
		job("heals", func(ctx context.Context) (int, error) {
			calls.Add(1)
			if Attempt(ctx) == 0 {
				return -1, nil
			}
			return 7, nil
		}),
	})
	if res[0].Err != nil || res[0].Value != 7 || calls.Load() != 2 {
		t.Fatalf("check did not force retry: %+v (calls %d)", res[0], calls.Load())
	}
}

func TestInjectedFaultsAndStickiness(t *testing.T) {
	inj := faultinject.Func(func(key string, attempt int) faultinject.Fault {
		if key == "victim" && attempt == 0 {
			return faultinject.FaultPanic
		}
		return faultinject.FaultNone
	})
	s := New(Config[int]{MaxRetries: 1, Backoff: time.Millisecond, Injector: inj})
	res := s.Run(context.Background(), []Job[int]{
		job("victim", func(context.Context) (int, error) { return 9, nil }),
		job("spared", func(context.Context) (int, error) { return 1, nil }),
	})
	if res[0].Err != nil || res[0].Value != 9 || res[0].Attempts != 2 {
		t.Fatalf("non-sticky injected panic should be healed by retry: %+v", res[0])
	}
	if res[1].Err != nil {
		t.Fatalf("uninjected job failed: %+v", res[1])
	}
}

func TestStallHitsDeadline(t *testing.T) {
	inj := faultinject.Func(func(string, int) faultinject.Fault { return faultinject.FaultStall })
	s := New(Config[int]{Timeout: 10 * time.Millisecond, Injector: inj})
	res := s.Run(context.Background(), []Job[int]{
		job("stuck", func(context.Context) (int, error) { return 1, nil }),
	})
	if res[0].Err == nil || !res[0].Err.Timeout {
		t.Fatalf("stall did not trip the deadline: %+v", res[0])
	}
}

func TestBackoffIsCappedExponential(t *testing.T) {
	base, max := 100*time.Millisecond, 400*time.Millisecond
	want := []time.Duration{100, 200, 400, 400, 400}
	for n, w := range want {
		if got := backoff(base, max, n); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", n, got, w*time.Millisecond)
		}
	}
}

// eventLog records the types of the events it receives, in order.
type eventLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *eventLog) Write(rec obs.Record) { l.add(rec.Type) }

func (l *eventLog) add(s string) {
	l.mu.Lock()
	l.seen = append(l.seen, s)
	l.mu.Unlock()
}

// TestSettledSeesOnlyAcceptedValues pins the Settled hook's place: it
// receives the value Check accepted, never one it rejected, and before
// the job's run_done event.
func TestSettledSeesOnlyAcceptedValues(t *testing.T) {
	var log eventLog
	var n atomic.Int32
	s := New(Config[int]{
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		Check: func(v int) error {
			if v == 0 {
				return errors.New("rejected")
			}
			return nil
		},
		Settled: func(key string, v int) { log.add(fmt.Sprintf("settled %s=%d", key, v)) },
		Events:  &log,
	})
	res := s.Run(context.Background(), []Job[int]{
		job("k", func(context.Context) (int, error) { return int(n.Add(1)) - 1, nil }),
	})
	if res[0].Err != nil || res[0].Value != 1 {
		t.Fatalf("result %+v, want 1 on the retry", res[0])
	}
	want := []string{"run_start", "run_retry", "settled k=1", "run_done"}
	if fmt.Sprint(log.seen) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", log.seen, want)
	}
}

func TestResultDurationRecorded(t *testing.T) {
	s := New(Config[int]{})
	res := s.Run(context.Background(), []Job[int]{
		job("timed", func(context.Context) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return 1, nil
		}),
	})
	if res[0].Duration < 5*time.Millisecond {
		t.Fatalf("Duration = %v, want >= 5ms", res[0].Duration)
	}
}
