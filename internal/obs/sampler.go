package obs

import (
	"fmt"
	"io"
	"time"
)

// SamplerConfig controls StartSampler.
type SamplerConfig struct {
	Registry *Registry     // registry to snapshot; Default if nil
	Interval time.Duration // snapshot period; default 2s
	Trace    *TraceWriter  // JSONL sink for "snapshot" records (may be nil)
	Progress io.Writer     // single-line live display (may be nil)
}

// Sampler periodically snapshots a registry, derives rates (instr/s) and
// sweep progress (cells done/planned, ETA) from the well-known metrics,
// writes a "snapshot" telemetry record, and repaints a single-line progress
// display using a carriage return (no scrollback spam on a terminal).
type Sampler struct {
	cfg  SamplerConfig
	stop chan struct{}
	done chan struct{}
}

// StartSampler launches the sampling goroutine. Call Stop to flush a final
// sample and wait for it to exit.
func StartSampler(cfg SamplerConfig) *Sampler {
	if cfg.Registry == nil {
		cfg.Registry = Default
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	s := &Sampler{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// Stop takes one last sample, terminates the progress line with a newline,
// and waits for the goroutine to exit. Safe to call once.
func (s *Sampler) Stop() {
	close(s.stop)
	<-s.done
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	start := time.Now()
	prevInstr := s.cfg.Registry.Snapshot().Counter(MetricInstructions)
	prevAt := start
	for {
		var final bool
		select {
		case <-tick.C:
		case <-s.stop:
			final = true
		}
		now := time.Now()
		snap := s.cfg.Registry.Snapshot()

		instr := snap.Counter(MetricInstructions)
		dt := now.Sub(prevAt).Seconds()
		var rate float64
		if dt > 0 {
			rate = float64(Delta(instr, prevInstr)) / dt
		}
		prevInstr, prevAt = instr, now

		done := int64(snap.Counter(MetricRunsCompleted) + snap.Counter(MetricRunsFailed) + snap.Counter(MetricStoreHits))
		planned := snap.Gauge(GaugeCellsPlanned)
		var eta float64
		if done > 0 && planned > done {
			perCell := now.Sub(start).Seconds() / float64(done)
			eta = perCell * float64(planned-done)
		}

		s.cfg.Trace.Write(Record{
			Type:     "snapshot",
			Time:     now,
			Snapshot: &snap,
			InstrPS:  rate,
			Done:     done,
			Planned:  planned,
			ETASec:   eta,
		})
		if s.cfg.Progress != nil {
			line := fmt.Sprintf("cells %d/%d  %s instr/s  elapsed %s",
				done, planned, humanRate(rate), now.Sub(start).Truncate(time.Second))
			if eta > 0 {
				line += fmt.Sprintf("  eta %s", (time.Duration(eta) * time.Second).Truncate(time.Second))
			}
			if final {
				fmt.Fprintf(s.cfg.Progress, "\r\033[K%s\n", line)
			} else {
				fmt.Fprintf(s.cfg.Progress, "\r\033[K%s", line)
			}
		}
		if final {
			return
		}
	}
}

func humanRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
