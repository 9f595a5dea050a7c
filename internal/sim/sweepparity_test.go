package sim

import (
	"runtime"
	"testing"
)

// parityMachine is small enough that the full profile × technique product
// stays fast, while still exercising warmup, the decay machinery and the
// memory hierarchy.
func parityMachine(l2 int) MachineConfig {
	mc := DefaultMachine(l2)
	mc.Warmup = 30_000
	mc.Instructions = 60_000
	return mc
}

// TestExperimentsWorkersOverride checks the worker-count resolution rules:
// an explicit Workers wins, and 0 means GOMAXPROCS.
func TestExperimentsWorkersOverride(t *testing.T) {
	for _, c := range []struct{ workers, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{1, 1},
		{3, 3},
	} {
		e := NewExperiments()
		e.Workers = c.workers
		if got := e.workers(); got != c.want {
			t.Fatalf("Workers=%d resolved to %d workers, want %d", c.workers, got, c.want)
		}
	}
}
