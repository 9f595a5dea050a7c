// Command bench is the repository's end-to-end benchmark: the workloads a
// user of this repository waits on, each driven only through public entry
// points (the sim.Experiments figure methods, the leakd server and cluster
// coordinator over httptest, and api.Client), with a traced mode that
// breaks the end-to-end cost down by layer.
//
//	bash bench/run.sh -workload cluster-mixed -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload cluster-mixed -seed 1 -seconds 15 -trace 1 -spans spans.json
//	bash bench/run.sh -compare A.json B.json
//
// A run prints every metric with its unit and sample count, then, as its
// last line, one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics untraced, the per-layer metrics traced.
// See README.md for the workloads, the metrics and the recipes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotleakage/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", defaults.Seed, "seed the workload's inputs are drawn from")
		seconds  = fs.Float64("seconds", defaults.Seconds, "length of the timed phase in seconds")
		traced   = fs.Int("trace", 0, "1 traces the run and reports the per-layer metrics instead of the end-to-end ones")
		jsonOut  = fs.String("json", "", "append the run's full report to this file as one JSON line")
		spansOut = fs.String("spans", "", "write the traced run's spans to this file")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the run's temporary stores")
		compare  = fs.Bool("compare", false, "compare two -json report files given as arguments: -compare A.json B.json")
		benchDef = fs.String("benchmark", "BENCHMARK.json", "benchmark definition -compare takes directions and bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return runCompare(*benchDef, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{s: defaults, wl: wl, seed: *seed, seconds: *seconds, dir: dir}
	if *traced == 1 {
		r.tr = newTracer()
		r.det = &details{}
	}
	// A run that cannot finish in this time has hung; its context expires
	// and the run reports the failure instead of waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep := execute(ctx, r)

	printReport(stdout, rep)
	code := 0
	if *jsonOut != "" {
		if err := appendJSONLine(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		}
	}
	if *spansOut != "" && r.tr != nil {
		if err := writeSpans(*spansOut, r.tr.all()); err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "error:", e)
	}
	if !rep.Correct {
		code = 1
	}
	return code
}

// workloadDef is one traffic mix the benchmark runs. Why each was chosen
// is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	// serving workloads run Clients closed-loop clients after an untimed
	// warm-up; the simulation workloads run one operation at a time.
	serving bool
	setup   func(ctx context.Context, r *run) (instance, error)
}

var workloads = []*workloadDef{
	{name: "paper-all", setup: setupPaper},
	{name: "frontier", setup: setupFrontier},
	{name: "cluster-mixed", serving: true, setup: setupCluster},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// instance is one set-up copy of a workload.
type instance interface {
	// op runs one operation; n numbers operations across clients and seeds
	// the operation's inputs. It returns the sweep the operation served,
	// if any.
	op(ctx context.Context, n int) (sweep string, err error)
	// check recomputes a seeded sample of the instance's outputs with the
	// scalar paths (sim.RunOne, attack.Run) and compares them byte for byte.
	check(ctx context.Context, c *checker)
	// inputs are the workload's own inputs, replayed through the layers'
	// public functions in a traced run.
	inputs() layerInputs
	// calls turns the timed phase's counter deltas into the number of
	// calls each replayed layer received, for the ledger.
	calls(d deltas, ops int, det *details) layerCalls
	close() error
}

// run is one invocation of the benchmark.
type run struct {
	s       settings
	wl      *workloadDef
	seed    uint64
	seconds float64
	dir     string   // scratch directory for stores, removed at exit
	tr      *tracer  // nil when untraced
	det     *details // per-operation details; nil when untraced
}

// Random streams: each use of the seed draws from its own stream, so adding
// a draw to one never shifts another's inputs.
const (
	streamInputs = 1
	streamCheck  = 2
	streamOps    = 1 << 20 // + operation number
)

func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, stream))
}

func (r *run) clients() int {
	if r.wl.serving {
		return r.s.Clients
	}
	return 1
}

// details collects per-operation observations of a traced run that no
// span records, such as the sweep timestamps a status reports.
type details struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (d *details) add(name string, v float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = make(map[string][]float64)
	}
	d.m[name] = append(d.m[name], v)
}

func (d *details) get(name string) []float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.m[name]...)
}

func (d *details) reset() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.m = nil
	d.mu.Unlock()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// report is everything one run produced. The last line a run prints is
// its result: Correct, Attempted, Failed and Metrics.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// EndToEnd holds the end-to-end metrics in both modes, so the
	// difference between a traced and an untraced run shows the tracing
	// overhead. Samples gives each metric's sample count.
	EndToEnd map[string]metric `json:"end_to_end"`
	Samples  map[string]int    `json:"samples"`
	// Counts are the exact simulated counts of the check sample: a function
	// of the seed alone, identical between traced and untraced runs.
	Counts map[string]uint64 `json:"counts"`
	// Traced runs only: the span table, the ledger and the per-layer
	// details behind the per-layer metrics.
	Spans  []spanRow          `json:"spans,omitempty"`
	Ledger map[string]float64 `json:"ledger,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// execute sets the workload up, warms it, times it, checks its outputs
// and, when traced, replays its inputs through each layer.
func execute(ctx context.Context, r *run) *report {
	rep := &report{Workload: r.wl.name, Seed: r.seed, Trace: r.tr != nil, Seconds: r.seconds,
		Samples: map[string]int{}}
	fail := func(format string, a ...any) *report {
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, a...))
		rep.Failed++
		rep.Attempted++
		rep.Metrics = zeroMetrics(r.tr != nil)
		return rep
	}

	var inst instance
	var setups []float64
	for i := 0; i < r.s.SetupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fail("close set-up %d: %v", i, err)
			}
		}
		t := time.Now()
		var err error
		inst, err = r.wl.setup(ctx, r)
		if err != nil {
			return fail("set-up: %v", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			rep.Errors = append(rep.Errors, "close: "+err.Error())
			rep.Attempted++
			rep.Failed++
			rep.Correct = false
		}
	}()

	var seq atomic.Int64
	if r.wl.serving && r.s.ServeWarmupFor > 0 {
		if w := r.loop(ctx, inst, r.s.ServeWarmupFor, &seq); w.failed > 0 {
			return fail("warm-up: %d of %d operations failed: %s", w.failed, w.failed+w.ok, strings.Join(w.errs, "; "))
		}
	}
	r.tr.reset()
	r.det.reset()

	s0, u0 := obs.Default.Snapshot(), readUsage()
	res := r.loop(ctx, inst, time.Duration(r.seconds*float64(time.Second)), &seq)
	s1, u1 := obs.Default.Snapshot(), readUsage()
	spans := r.tr.all()
	rep.Attempted += res.ok + res.failed
	rep.Failed += res.failed
	rep.Errors = append(rep.Errors, res.errs...)

	chk := &checker{}
	inst.check(ctx, chk)
	rep.Attempted += chk.attempted
	rep.Failed += chk.failed
	rep.Errors = append(rep.Errors, chk.errs...)
	rep.Counts = chk.counts

	cpu := u1.cpu - u0.cpu
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"op_p50_ms":     {percentile(res.lat, 50), "ms"},
		"cpu_ms_per_op": {float64(cpu) / float64(time.Millisecond) / float64(res.ok), "ms"},
		"peak_rss_mb":   {float64(u1.peakRSS) / (1 << 20), "MB"},
	}
	rep.EndToEnd = finite(e2e)
	rep.Samples["setup_s"] = len(setups)
	for _, m := range []string{"op_p50_ms", "cpu_ms_per_op"} {
		rep.Samples[m] = res.ok
	}

	if r.tr == nil {
		rep.Metrics = rep.EndToEnd
	} else {
		in := inst.inputs()
		costs, err := replayLayers(ctx, r, in, chk)
		if err != nil {
			rep.Errors = append(rep.Errors, "layer replay: "+err.Error())
			rep.Failed++
			rep.Attempted++
		}
		d := newDeltas(s0, s1)
		t := timed{ops: res.ok, lat: res.lat, elapsed: res.elapsed, cpu: cpu, spans: spans}
		calls := inst.calls(d, res.ok, r.det)
		m, samples := perLayerMetrics(r, in, costs, chk, d, t, calls)
		rep.Metrics = finite(m)
		for k, n := range samples {
			rep.Samples[k] = n
		}
		rep.Ledger = ledger(costs, calls, cpu)
		rep.Spans = spanStats(spans)
		if p, ok := ruleTail(res.ok); ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf("op.tail_ms is p%g over %d operations", p, res.ok))
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"op.tail_ms reads 0: %d operations leave no percentile with ten samples beyond it", res.ok))
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite replaces values JSON cannot carry (a workload whose layer saw no
// calls divides by zero) with 0.
func finite(m map[string]metric) map[string]metric {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}

// zeroMetrics is the metric set of a run that failed before measuring.
func zeroMetrics(traced bool) map[string]metric {
	m := make(map[string]metric)
	if traced {
		for _, pl := range perLayer {
			m[pl.name] = metric{0, pl.unit}
		}
		return m
	}
	for _, e := range endToEnd {
		m[e.name] = metric{0, e.unit}
	}
	return m
}

// loopResult is one closed-loop phase's outcome.
type loopResult struct {
	lat        []float64 // ms per successful operation
	ok, failed int
	elapsed    time.Duration // start to the last completion
	errs       []string      // the first few failures
}

// loop runs the workload's clients in a closed loop for d: each client
// starts its next operation only after the previous one returned, and only
// while the mean operation so far would still end within d. A client's
// first operation always runs, so a phase shorter than one operation
// measures one.
func (r *run) loop(ctx context.Context, inst instance, d time.Duration, seq *atomic.Int64) loopResult {
	var (
		mu    sync.Mutex
		res   loopResult
		total time.Duration // summed latency of the operations that ended
		ended int
		last  time.Time
		wg    sync.WaitGroup
	)
	start := time.Now()
	fits := func() bool {
		mu.Lock()
		defer mu.Unlock()
		mean := time.Duration(0)
		if ended > 0 {
			mean = total / time.Duration(ended)
		}
		return time.Since(start)+mean < d
	}
	for c := 0; c < r.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; (first || fits()) && ctx.Err() == nil; first = false {
				n := int(seq.Add(1) - 1)
				id, st := r.tr.begin()
				t0 := time.Now()
				sweep, err := inst.op(withSpan(ctx, id), n)
				lat := time.Since(t0)
				r.tr.end(id, 0, "op."+r.wl.name, sweep, st)
				mu.Lock()
				total += lat
				ended++
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("operation %d: %v", n, err))
					}
				} else {
					res.ok++
					res.lat = append(res.lat, ms(lat))
				}
				last = time.Now()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if res.ok+res.failed > 0 {
		res.elapsed = last.Sub(start)
	}
	return res
}

// printReport writes the human-readable metric lines, then the result line.
func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s, %gs timed phase\n", rep.Workload, rep.Seed, mode, rep.Seconds)
	printMetrics := func(title string, m map[string]metric) {
		fmt.Fprintf(w, "%s:\n", title)
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			n := ""
			if c, ok := rep.Samples[k]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "  %-36s %16.6g %-8s%s\n", k, m[k].Value, m[k].Unit, n)
		}
	}
	if rep.EndToEnd != nil {
		printMetrics("end-to-end", rep.EndToEnd)
	}
	if rep.Trace && rep.Metrics != nil {
		printMetrics("per-layer", rep.Metrics)
	}
	if len(rep.Counts) > 0 {
		fmt.Fprintf(w, "exact counts of the check sample:")
		keys := make([]string, 0, len(rep.Counts))
		for k := range rep.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, rep.Counts[k])
		}
		fmt.Fprintln(w)
	}
	if len(rep.Spans) > 0 {
		fmt.Fprintf(w, "spans of the timed phase:\n  %-34s %8s %12s %10s %10s\n", "name", "count", "p50 ms", "total s", "self s")
		for _, s := range rep.Spans {
			fmt.Fprintf(w, "  %-34s %8d %12.4f %10.4f %10.4f\n", s.Name, s.Count, s.P50ms, s.TotalS, s.SelfS)
		}
	}
	if rep.Ledger != nil {
		fmt.Fprintf(w, "ledger %s: %s\n", rep.Workload, ledgerLine(rep.Ledger))
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "%s: %d attempted, %d failed\n", map[bool]string{true: "correct", false: "INCORRECT"}[rep.Correct],
		rep.Attempted, rep.Failed)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintln(w, string(line))
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readReports reads a file of -json report lines.
func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []report
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rep report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, rep)
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no reports")
	}
	return out, nil
}
