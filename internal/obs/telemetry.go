package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Record is one JSONL telemetry line. Every record carries a Type
// discriminator ("snapshot" for sampler output; event types such as
// "run_start", "run_retry", "run_fault", "run_done", "run_error",
// "store_hit" for run traces) and a wall-clock timestamp. Event records
// carry the RunID — the run key — so one cell's records join on it.
type Record struct {
	Type string    `json:"type"`
	Time time.Time `json:"time"`

	// Event fields.
	RunID   string `json:"run_id,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
	Detail  string `json:"detail,omitempty"`

	// Snapshot fields.
	Snapshot *Snapshot `json:"metrics,omitempty"`
	InstrPS  float64   `json:"instr_per_s,omitempty"`
	Done     int64     `json:"cells_done,omitempty"`
	Planned  int64     `json:"cells_planned,omitempty"`
	ETASec   float64   `json:"eta_s,omitempty"`
}

// TraceWriter serializes Records as JSON lines to an io.Writer. It is safe
// for concurrent use (package sim emits events from worker goroutines while
// the sampler emits snapshots).
type TraceWriter struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewTraceWriter wraps w. The caller owns closing the underlying writer.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, enc: json.NewEncoder(w)}
}

// Write appends one record. Encoding errors are sticky: the first one is
// retained and returned by Err, and later writes become no-ops, so a full
// disk degrades telemetry rather than the sweep.
func (t *TraceWriter) Write(rec Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if err := t.enc.Encode(rec); err != nil {
		t.err = fmt.Errorf("obs: telemetry write: %w", err)
	}
}

// Err reports the first write error, if any.
func (t *TraceWriter) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
