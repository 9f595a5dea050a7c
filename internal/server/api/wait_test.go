package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hotleakage/internal/obs"
)

// sweepFake serves one sweep, "s-1": its status reads running for the
// first `running` reads and completed after, and its event stream answers
// with the events handler. It counts both kinds of request.
type sweepFake struct {
	running        int64
	events         http.HandlerFunc
	polls, streams atomic.Int64
}

func (f *sweepFake) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/sweeps/s-1/events":
		f.streams.Add(1)
		f.events(w, r)
	case "/v1/sweeps/s-1":
		st := SweepStatus{ID: "s-1", State: StateRunning}
		if f.polls.Add(1) > f.running {
			st.State = StateCompleted
		}
		_ = json.NewEncoder(w).Encode(st)
	default:
		http.NotFound(w, r)
	}
}

// oneEvent starts an SSE response and flushes a single run_start record.
func oneEvent(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/event-stream")
	fmt.Fprint(w, "event: run_start\ndata: {\"type\":\"run_start\",\"run_id\":\"gzip/11/drowsy/4096\"}\n\n")
	w.(http.Flusher).Flush()
}

// TestWatchSweepFallsBackToPolling: when the event stream fails, or ends
// while the sweep is still running, the wait polls the status at
// PollInterval and returns the terminal status, handing the sink whatever
// the stream carried before it broke.
func TestWatchSweepFallsBackToPolling(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events http.HandlerFunc
		seen   int // records the sink must receive
	}{
		{"events answered 500", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
		}, 0},
		{"stream cut mid-sweep", func(w http.ResponseWriter, _ *http.Request) {
			oneEvent(w)
			panic(http.ErrAbortHandler) // the connection drops mid-body
		}, 1},
		{"stream ended before the verdict", func(w http.ResponseWriter, _ *http.Request) {
			oneEvent(w)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &sweepFake{running: 2, events: tc.events}
			ts := httptest.NewServer(f)
			defer ts.Close()
			c := fastClient(ts.URL)
			c.PollInterval = 5 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			seen := 0
			st, err := c.WatchSweep(ctx, "s-1", func(obs.Record) { seen++ })
			if err != nil {
				t.Fatalf("WatchSweep: %v", err)
			}
			if st.State != StateCompleted {
				t.Fatalf("state %q, want completed", st.State)
			}
			if got := f.polls.Load(); got != 3 {
				t.Errorf("status read %d times, want 3 (two running, one completed)", got)
			}
			if got := f.streams.Load(); got != 1 {
				t.Errorf("stream opened %d times, want 1", got)
			}
			if seen != tc.seen {
				t.Errorf("sink saw %d records, want %d", seen, tc.seen)
			}
		})
	}
}

// TestWatchSweepBreaker: the stream attempt goes through the breaker like
// every other call. An open breaker fast-fails the wait without dialing
// anything, and the stream's own outcome is recorded: a 5xx opens a
// threshold-one breaker, and a clean stream closes it again.
func TestWatchSweepBreaker(t *testing.T) {
	var calls atomic.Int64
	var sick atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if sick.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusBadGateway)
			return
		}
		oneEvent(w)
	}))
	defer ts.Close()

	now := time.Now()
	c := fastClient(ts.URL)
	c.Breaker = &Breaker{Threshold: 1, Cooldown: time.Minute, now: func() time.Time { return now }}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sick.Store(true)
	if err := c.StreamEvents(ctx, "s-1", func(obs.Record) {}); err == nil {
		t.Fatal("a 502 stream reported success")
	}
	if c.Breaker.Allow() {
		t.Fatal("a failed stream did not count against the breaker")
	}

	before := calls.Load()
	start := time.Now()
	_, err := c.WatchSweep(ctx, "s-1", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("WatchSweep behind an open breaker = %v, want ErrUnavailable", err)
	}
	if n := calls.Load() - before; n != 0 {
		t.Errorf("open breaker still made %d requests", n)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("open breaker took %v to fail, want a fast fail", d)
	}

	// The cooldown passes and the daemon recovers: the stream is the
	// half-open probe, and its success closes the circuit.
	sick.Store(false)
	now = now.Add(2 * time.Minute)
	if err := c.StreamEvents(ctx, "s-1", func(obs.Record) {}); err != nil {
		t.Fatalf("probe stream: %v", err)
	}
	if !c.Breaker.Allow() || !c.Breaker.Allow() {
		t.Error("a successful probe stream did not close the breaker")
	}
}
