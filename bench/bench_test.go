package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// toy shrinks every workload so the whole suite runs each of them, traced
// and untraced, through the same code path in a few seconds.
var toy = settings{
	Workers: 2, Clients: 2, SetupReps: 1,

	Instructions: 4_000, Warmup: 1_000,
	SetupInstructions: 2_000, SetupWarmup: 500,

	FrontierScenarios: []string{"smoke"},
	FrontierIntervals: 2, IntervalMin: 512, IntervalMax: 131_072,
	FrontierL2: 11, FrontierTempC: 110,

	ServeL2: 11, ServeInstructions: 4_000, ServeWarmup: 1_000,
	ClusterWorkers: 2, ClusterBenches: 2, ClusterInterval: 4096, ClusterWarm: 2,

	CheckEnergy: 3, CheckAttack: 1,
	ReplayInstr: 20_000,
}

func toyRun(t *testing.T, wl *workloadDef, seed uint64, traced bool) *report {
	t.Helper()
	r := &run{s: toy, wl: wl, seed: seed, seconds: 0.3, dir: t.TempDir()}
	if traced {
		r.tr = newTracer()
		r.det = &details{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep := execute(ctx, r)
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s seed %d traced=%v: %d of %d failed: %v", wl.name, seed, traced, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

// benchmarkFile is the repository's BENCHMARK.json, whose metric lists
// must match what the program reports.
func benchmarkFile(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// spanMetrics are per-layer metrics each workload's spans must produce.
var spanMetrics = map[string][]string{
	"paper-all":     {"sim.figure_ms.Figure3_4", "sim.figure_ms.Table3"},
	"frontier":      {"sim.figure_ms.FrontierFigure"},
	"cluster-mixed": {"http.events_ms", "server.handler_ms.submit", "server.run_ms", "cluster.worker_run_ms", "cluster.ack_wait_ms"},
}

func TestWorkloadsToy(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			plain := toyRun(t, wl, 1, false)
			for _, e := range endToEnd {
				m, ok := plain.Metrics[e.name]
				if !ok || m.Unit != e.unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", e.name, m, e.unit)
				}
			}
			if len(plain.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want the %d end-to-end ones", len(plain.Metrics), len(endToEnd))
			}

			traced := toyRun(t, wl, 1, true)
			for _, pl := range perLayer {
				if m, ok := traced.Metrics[pl.name]; !ok || m.Unit != pl.unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", pl.name, m, pl.unit)
				}
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
			}
			if traced.Ledger == nil || len(traced.Spans) == 0 {
				t.Error("traced run has no ledger or no spans")
			}
			for _, name := range spanMetrics[wl.name] {
				if m := traced.Metrics[name]; !(m.Value > 0) || traced.Samples[name] == 0 {
					t.Errorf("%s = %g over %d samples, want a positive median of the workload's spans", name, m.Value, traced.Samples[name])
				}
			}
			if plain.Counts["cpu.instructions"] == 0 || !reflect.DeepEqual(plain.Counts, traced.Counts) {
				t.Errorf("exact counts differ between untraced %v and traced %v", plain.Counts, traced.Counts)
			}

			// The last line printed is the result object, with exactly its
			// four keys.
			var buf bytes.Buffer
			printReport(&buf, plain)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := res[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(res) != 4 {
				t.Errorf("result line has %d keys, want 4", len(res))
			}
		})
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json's workload and metric lists
// to the program's.
func TestBenchmarkFileMatches(t *testing.T) {
	m := benchmarkFile(t)
	var wls []struct{ Name string }
	var e2e, pl []struct{ Name, Unit string }
	for k, v := range map[string]any{"workloads": &wls, "end_to_end": &e2e, "per_layer": &pl} {
		if err := json.Unmarshal(m[k], v); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	var listed []string
	for _, w := range wls {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v", listed, workloadNames())
	}
	if len(e2e) != len(endToEnd) || len(pl) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(e2e), len(pl), len(endToEnd), len(perLayer))
	}
	for i, e := range endToEnd {
		if e2e[i].Name != e.name || e2e[i].Unit != e.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %s %s", i, e2e[i], e.name, e.unit)
		}
	}
	for i, p := range perLayer {
		if pl[i].Name != p.name || pl[i].Unit != p.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %s %s", i, pl[i], p.name, p.unit)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10_000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{99, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := ruleTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("ruleTail(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// sleeper is an instance whose operations each take d; loop calls only op.
type sleeper struct {
	instance
	d time.Duration
}

func (s sleeper) op(context.Context, int) (string, error) {
	time.Sleep(s.d)
	return "", nil
}

// TestLoopMeasuresWholeOperations: a phase shorter than one operation
// measures exactly one per client, and no client starts an operation the
// mean so far says would end after the phase.
func TestLoopMeasuresWholeOperations(t *testing.T) {
	for _, c := range []struct {
		wl      string
		phase   time.Duration
		wantOps int
	}{
		{"paper-all", time.Millisecond, 1},
		{"cluster-mixed", time.Millisecond, toy.Clients},
		{"paper-all", 250 * time.Millisecond, 2},
	} {
		r := &run{s: toy, wl: workloadByName(c.wl)}
		var seq atomic.Int64
		res := r.loop(context.Background(), sleeper{d: 100 * time.Millisecond}, c.phase, &seq)
		if res.ok != c.wantOps || res.failed != 0 {
			t.Errorf("%s, %v phase: %d operations, %d failed; want %d", c.wl, c.phase, res.ok, res.failed, c.wantOps)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
	if p := percentile([]float64{4, 1, 3, 2}, 50); p != 2.5 {
		t.Errorf("p50 = %g, want 2.5", p)
	}
	if p := percentile([]float64{4, 1, 3, 2}, 100); p != 4 {
		t.Errorf("p100 = %g, want 4", p)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name    string
		a, b    []float64
		higher  bool
		bound   float64
		bounded bool
		want    string
	}{
		{"same values", []float64{5, 5, 5}, []float64{5, 5, 5}, false, 0.1, true, verdictIdentical},
		{"faster", base, scale(base, 0.8), false, 0.1, true, verdictBetter},
		{"slower beyond bound", base, scale(base, 1.2), false, 0.1, true, verdictWorse},
		{"slower within bound", base, scale(base, 1.05), false, 0.1, true, verdictWithin},
		{"noise", base, []float64{101, 99, 100, 102, 98, 100, 99, 101, 100, 100}, false, 0.1, true, verdictWithin},
		{"too noisy to tell", []float64{50, 100, 150, 80, 120}, []float64{60, 110, 140, 90, 130}, false, 0.1, true, verdictUnresolved},
		{"higher is better", base, scale(base, 1.3), true, 0.1, true, verdictBetter},
		{"throughput drop", base, scale(base, 0.7), true, 0.1, true, verdictWorse},
		{"unbounded worse", base, scale(base, 1.5), false, 0, false, verdictWorse},
		{"unbounded no change", base, scale(base, 1.01), false, 0, false, verdictNoChange},
	} {
		if got := compareSamples(c.a, c.b, c.higher, c.bound, c.bounded).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	c := compareSamples(base, scale(base, 0.8), false, 0.1, true)
	if c.wins != 10 || c.pairs != 10 {
		t.Errorf("wins %d of %d pairs, want 10 of 10", c.wins, c.pairs)
	}
}

// TestSeedHandling: different seeds draw different inputs, while the
// number of cells and the instructions they simulate stay the same.
func TestSeedHandling(t *testing.T) {
	p1, p2 := seededProfiles(1), seededProfiles(2)
	if p1[0].Seed == p2[0].Seed || len(p1) != len(p2) {
		t.Errorf("seeded profiles: seeds %d and %d, %d and %d profiles", p1[0].Seed, p2[0].Seed, len(p1), len(p2))
	}
	if p0 := seededProfiles(0); p0[0].Seed != 101 {
		t.Errorf("seed 0 gives profile seed %d, want the paper's 101", p0[0].Seed)
	}
	r1 := &run{s: defaults, seed: 1}
	r2 := &run{s: defaults, seed: 2}
	i1 := stratifiedIntervals(r1.rng(streamInputs), 8, 512, 131_072)
	i2 := stratifiedIntervals(r2.rng(streamInputs), 8, 512, 131_072)
	if reflect.DeepEqual(i1, i2) || len(i1) != len(i2) {
		t.Errorf("frontier intervals %v and %v", i1, i2)
	}
	for i := 1; i < len(i1); i++ {
		if i1[i] <= i1[i-1] || i1[0] < 512 || i1[len(i1)-1] > 131_072 {
			t.Errorf("intervals %v are not increasing within [512, 131072]", i1)
		}
	}
	if freshInterval(1, 7) == freshInterval(2, 7) {
		t.Error("fresh intervals do not depend on the seed")
	}
	seen := map[uint64]bool{}
	for n := 0; n < 20_000; n++ {
		iv := freshInterval(3, n)
		if seen[iv] || iv < 5000 || iv >= 25_000 || iv == defaults.ClusterInterval {
			t.Fatalf("operation %d: fresh interval %d repeats or leaves [5000, 25000)", n, iv)
		}
		seen[iv] = true
	}

	a := toyRun(t, workloadByName("paper-all"), 1, false)
	b := toyRun(t, workloadByName("paper-all"), 2, false)
	// Both seeds simulate the same budget per cell; a core may commit up to
	// CommitWidth-1 instructions past the target of each of a cell's two
	// runs (warm-up and measurement).
	ia, ib := int(a.Counts["cpu.instructions"]), int(b.Counts["cpu.instructions"])
	if want := toy.CheckEnergy * int(toy.Instructions+toy.Warmup); ia < want || ib < want || abs(ia-ib) > toy.CheckEnergy*2*3 {
		t.Errorf("instructions %d and %d, want both the %d budgeted, give or take the commit overshoot", ia, ib, want)
	}
	if a.Counts["cpu.cycles"] == b.Counts["cpu.cycles"] {
		t.Errorf("both seeds simulated %d cycles; the streams did not change", a.Counts["cpu.cycles"])
	}
	si1 := &simInstance{r: r1, profiles: p1}
	si2 := &simInstance{r: r2, profiles: p2}
	if n1, n2 := len(si1.cells()), len(si2.cells()); n1 != n2 || n1 != 264 {
		t.Errorf("paper-all plans %d and %d cells, want 264", n1, n2)
	}
	if e := paperEvals(11); e != 418 {
		t.Errorf("paperEvals(11) = %d, want 418", e)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
