// Package faultinject provides deterministic fault injection for package
// sim's attempt loop. It exists so the loop's recovery and retry paths are
// themselves exercised by tests and by `leakbench -faultinject` instead of
// waiting for a real panic to prove them out.
//
// Faults are decided per (run key, attempt) by a pure hash, so a given spec
// always fails the same runs — a test that injects "panic into 1 of 8 runs"
// fails the same cells on every execution, and a retry of a non-sticky
// fault deterministically succeeds.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
)

// Fault is the kind of failure to inject into a run.
type Fault int

// Fault kinds. The attempt loop decides one per cell and attempt; the
// cell's run applies it.
const (
	FaultNone Fault = iota
	// FaultPanic panics inside the run, exercising recovery.
	FaultPanic
	// FaultError fails the run before it starts, exercising retry.
	FaultError
	// FaultStall makes the run time out, exercising deadline handling.
	FaultStall
	// FaultNaN corrupts the run's energy measurement to NaN, exercising
	// result validation.
	FaultNaN
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultError:
		return "error"
	case FaultStall:
		return "stall"
	case FaultNaN:
		return "nan"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Injector decides whether a fault should be injected into the given run
// attempt. Implementations must be safe for concurrent use and pure: the
// same (key, attempt) must always yield the same decision.
type Injector interface {
	Decide(key string, attempt int) Fault
}

// Func adapts a plain function to the Injector interface (tests).
type Func func(key string, attempt int) Fault

// Decide implements Injector.
func (f Func) Decide(key string, attempt int) Fault { return f(key, attempt) }

// Deterministic injects Fault into roughly 1 of N runs, chosen by an
// FNV-1a hash of the run key mixed with Seed. Non-sticky faults fire only
// on the first attempt, so a retry recovers; sticky faults fire on every
// attempt, so the run fails permanently.
type Deterministic struct {
	Fault  Fault
	N      uint64 // fault when hash(key) % N == 0; 0 disables injection
	Seed   uint64
	Sticky bool
}

// String renders the canonical spec form (the inverse of Parse). A nil
// or disabled injector renders as "" — the same as no injection at all.
func (d *Deterministic) String() string {
	if d == nil || d.N == 0 || d.Fault == FaultNone {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:1/%d", d.Fault, d.N)
	if d.Seed != 0 {
		fmt.Fprintf(&b, ":seed=%d", d.Seed)
	}
	if d.Sticky {
		b.WriteString(":sticky")
	}
	return b.String()
}

// Decide implements Injector.
func (d *Deterministic) Decide(key string, attempt int) Fault {
	if d == nil || d.N == 0 || d.Fault == FaultNone {
		return FaultNone
	}
	if !d.Sticky && attempt > 0 {
		return FaultNone
	}
	if hash(key, d.Seed)%d.N == 0 {
		return d.Fault
	}
	return FaultNone
}

// hash is FNV-1a over key, seeded, with a murmur-style finalizer: FNV's
// low-order bits disperse poorly and the bucket test is a modulo.
func hash(key string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ (seed * prime)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Parse builds a Deterministic injector from a spec of the form
//
//	kind:1/N[:seed=S][:sticky]
//
// where kind is panic, error, stall or nan — e.g. "panic:1/8" panics in
// roughly one of every eight runs on their first attempt, and
// "nan:1/4:seed=3:sticky" corrupts the same quarter of runs on every
// attempt.
func Parse(spec string) (*Deterministic, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("faultinject: spec %q: want kind:1/N[:seed=S][:sticky]", spec)
	}
	d := &Deterministic{}
	switch parts[0] {
	case "panic":
		d.Fault = FaultPanic
	case "error":
		d.Fault = FaultError
	case "stall":
		d.Fault = FaultStall
	case "nan":
		d.Fault = FaultNaN
	default:
		return nil, fmt.Errorf("faultinject: unknown kind %q (have panic, error, stall, nan)", parts[0])
	}
	num, den, ok := strings.Cut(parts[1], "/")
	if !ok || num != "1" {
		return nil, fmt.Errorf("faultinject: rate %q: want 1/N", parts[1])
	}
	n, err := strconv.ParseUint(den, 10, 64)
	if err != nil || n == 0 {
		return nil, fmt.Errorf("faultinject: rate %q: want 1/N with N >= 1", parts[1])
	}
	d.N = n
	for _, p := range parts[2:] {
		switch {
		case p == "sticky":
			d.Sticky = true
		case strings.HasPrefix(p, "seed="):
			s, err := strconv.ParseUint(strings.TrimPrefix(p, "seed="), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed in %q", p)
			}
			d.Seed = s
		default:
			return nil, fmt.Errorf("faultinject: unknown option %q", p)
		}
	}
	return d, nil
}
