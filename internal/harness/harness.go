// Package harness holds the failure and event vocabulary every layer that
// runs simulations shares: RunError, the structured record of a cell that
// could not be produced (panic with stack, error, deadline or
// cancellation, and after how many attempts); PanicError, a recovered
// panic; and EventSink, where trace events go. Package sim's attempt loop
// produces all three; the daemon, the cluster and the commands report
// them. harness/faultinject is the deterministic fault injector that
// exercises the loop's recovery and retry paths.
package harness

import (
	"fmt"

	"hotleakage/internal/obs"
)

// RunError is the structured failure record for one cell: what failed, how
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

// PanicError is the error a recovered panic becomes.
type PanicError struct {
	Value string
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return "panic: " + e.Value }

// EventSink receives structured trace events. The records carry the run
// key as RunID, so one run's events join on it. *obs.TraceWriter
// satisfies the interface.
type EventSink interface {
	Write(obs.Record)
}
