// Package stream is the event-fanout layer shared by leakd's single-node
// server and the cluster coordinator: a per-sweep Hub that implements
// harness.EventSink, keeps a bounded replay ring for late subscribers, and
// fans live records out to SSE handlers. The coordinator additionally uses
// it as the merge point for per-shard worker streams — every worker's SSE
// events are written into the client-facing sweep's Hub, so a cluster
// sweep's event stream looks exactly like a single-node one.
package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hotleakage/internal/obs"
)

// BufCap bounds each sweep's replay buffer: late SSE subscribers see at
// most the last BufCap events. Oldest events are dropped first.
const BufCap = 4096

// subBufCap is the per-subscriber channel depth; a subscriber that cannot
// drain (stalled TCP peer) loses events rather than stalling the sweep.
const subBufCap = 256

// Hub fans a sweep's trace events out to SSE subscribers while keeping a
// bounded replay buffer so a subscriber attaching mid-sweep (or after it
// finished) still sees the history. It implements harness.EventSink, so the
// run_start/run_done/store_hit records of package sim's attempt loop and
// store rung flow through unchanged — the SSE stream is the sweep's trace,
// joined by run key.
type Hub struct {
	mu     sync.Mutex
	buf    []obs.Record
	start  int // ring read index into buf once full
	subs   map[chan obs.Record]struct{}
	closed bool
}

// NewHub returns an open hub with no subscribers.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan obs.Record]struct{})}
}

// Write implements harness.EventSink. Safe for concurrent use; never
// blocks — slow subscribers drop events.
func (h *Hub) Write(rec obs.Record) {
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if len(h.buf) < BufCap {
		h.buf = append(h.buf, rec)
	} else {
		h.buf[h.start] = rec
		h.start = (h.start + 1) % BufCap
	}
	for ch := range h.subs {
		select {
		case ch <- rec:
		default:
		}
	}
}

// Subscribe returns the replay history in order plus a live channel. The
// channel is closed when the hub closes (sweep finished); cancel detaches
// the subscriber. On an already-closed hub the channel comes back closed,
// so callers uniformly replay then drain.
func (h *Hub) Subscribe() (replay []obs.Record, ch chan obs.Record, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = make([]obs.Record, 0, len(h.buf))
	replay = append(replay, h.buf[h.start:]...)
	replay = append(replay, h.buf[:h.start]...)
	ch = make(chan obs.Record, subBufCap)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
		}
	}
}

// Close ends the stream: subscriber channels are closed (their SSE handlers
// return after draining) and further writes are dropped. The replay buffer
// stays readable for late subscribers. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// WriteSSE renders one record as a server-sent event.
func WriteSSE(w http.ResponseWriter, rec obs.Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", rec.Type, data)
	return err
}

// ServeSSE streams the hub over w as server-sent events: the replay
// history first, then live records until the hub closes or the request's
// context ends. It owns the response headers and the flush cadence.
func ServeSSE(w http.ResponseWriter, r *http.Request, h *Hub) error {
	fl, ok := w.(http.Flusher)
	if !ok {
		return fmt.Errorf("stream: response writer cannot flush")
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := h.Subscribe()
	defer cancel()
	for _, rec := range replay {
		if err := WriteSSE(w, rec); err != nil {
			return err
		}
	}
	fl.Flush()
	for {
		select {
		case rec, open := <-ch:
			if !open {
				return nil // hub closed; history already flushed
			}
			if err := WriteSSE(w, rec); err != nil {
				return err
			}
			fl.Flush()
		case <-r.Context().Done():
			return nil
		}
	}
}
