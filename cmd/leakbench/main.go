// Command leakbench regenerates the paper's tables and figures.
//
// Usage:
//
//	leakbench -all                 # every figure and table
//	leakbench -fig 8               # one figure (1,3..13)
//	leakbench -table 3             # one table (1,2,3)
//	leakbench -n 2000000 -fig 12   # longer runs
//	leakbench -attack              # leakage vs. savings frontier (prime+probe)
//	leakbench -attack -scenario occupancy -attack-intervals 1024,8192
//	leakbench -all -store DIR      # record every cell; a re-run resumes
//
// Output is text tables: one row per benchmark, one column per technique —
// the harness's equivalent of the paper's bar charts.
//
// Every simulation has an optional deadline (-timeout), and transient
// failures retry (-max-retries). With
// -store DIR every completed run is written to a content-addressed result
// store as it finishes, and a later run over the same store — after a
// SIGINT, a kill -9 or a failure — re-executes only the missing runs; a
// run over a complete store simulates nothing. SIGINT drains cleanly:
// in-flight runs stop, completed results are kept (and stored), and the
// failure summary reports what was cut short. A run that fails for any
// reason degrades to an ERR cell in its figures; the command then exits
// non-zero after rendering everything that succeeded.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/harness/profiling"
	"hotleakage/internal/leakage"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/tech"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		all        = flag.Bool("all", false, "regenerate every figure and table")
		fig        = flag.Int("fig", 0, "figure number to regenerate (1, 3-13)")
		table      = flag.Int("table", 0, "table number to regenerate (1-3)")
		n          = flag.Uint64("n", 1_000_000, "measured instructions per run")
		warmup     = flag.Uint64("warmup", 300_000, "warmup instructions per run")
		vary       = flag.Bool("variation", false, "enable inter-die parameter variation (Section 3.3)")
		serial     = flag.Bool("serial", false, "disable parallel simulation (same as -workers 1)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = all CPUs; overrides -serial)")
		noBatch    = flag.Bool("no-batch", false, "run every cell as a group of one lane instead of sharing a front per benchmark (slower; results identical)")
		attackMode = flag.Bool("attack", false, "run the adversarial prime+probe suite: per-technique leakage vs. energy-savings frontier")
		scenario   = flag.String("scenario", "ws-select", "attack scenario for -attack (see internal/attack's registry)")
		attackIvs  = flag.String("attack-intervals", "1024,4096,32768", "comma-separated decay intervals for -attack")
		asCSV      = flag.Bool("csv", false, "emit figures as CSV instead of text tables")
		timeout    = flag.Duration("timeout", 0, "per-run deadline (e.g. 30s; 0 = none)")
		storeDir   = flag.String("store", "", "content-addressed result store directory: completed runs are recorded there, and runs already there are not simulated again")
		maxRetries = flag.Int("max-retries", 2, "re-executions of a transiently failed run")
		faultSpec  = flag.String("faultinject", "", "inject faults for testing, e.g. panic:1/8[:seed=N][:sticky]")
		remote     = flag.String("remote", "", "delegate simulation to a leakd daemon at this address (host:port or URL); evaluation and rendering stay local")
		remoteFB   = flag.Bool("remote-fallback", true, "degrade to local simulation when the -remote daemon is unreachable (circuit breaker + retries exhausted)")
		telemetry  = flag.String("telemetry", "", "append JSONL telemetry (periodic snapshots + run trace events) to this file")
		telemIv    = flag.Duration("telemetry-interval", 2*time.Second, "snapshot period for -telemetry / -progress")
		metrics    = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/vars on this address, e.g. :9090")
		progress   = flag.Bool("progress", false, "single-line live progress display on stderr")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write an execution trace to this file")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	// SIGINT/SIGTERM cancel the suite: workers drain, completed runs are
	// kept (and stored), and the failure summary reports the rest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := sim.NewExperiments()
	e.Instructions = *n
	e.Warmup = *warmup
	e.Workers = *workers
	if *serial && *workers == 0 {
		e.Workers = 1
	}
	e.DisableBatch = *noBatch
	e.Ctx = ctx
	e.RunTimeout = *timeout
	e.MaxRetries = *maxRetries
	if *vary {
		e.Variation = leakage.DefaultVariation70nm()
	}
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		e.Injector = inj
	}
	if *remote != "" {
		// Thin-client mode: cells are simulated by the daemon (which has
		// its own store and retry policy); the local flags
		// governing execution no longer apply.
		e.Remote = api.NewClient(*remote)
		e.RemoteFallback = *remoteFB
		fmt.Fprintf(os.Stderr, "remote: delegating simulation to %s\n", *remote)
	}

	// Observability: JSONL telemetry file (snapshots + trace events keyed
	// by run key), a scrape endpoint, and a live single-line progress
	// display.
	var tw *obs.TraceWriter
	if *telemetry != "" {
		f, err := os.OpenFile(*telemetry, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		e.Events = tw
	}
	if *metrics != "" {
		addr, shutdown, err := obs.Serve(*metrics, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}
	if tw != nil || *progress {
		cfg := obs.SamplerConfig{Interval: *telemIv, Trace: tw}
		if *progress {
			cfg.Progress = os.Stderr
		}
		sampler := obs.StartSampler(cfg)
		defer sampler.Stop()
	}

	if !*all && *fig == 0 && *table == 0 && !*attackMode {
		flag.Usage()
		return 2
	}
	if *n < 300_000 {
		fmt.Fprintf(os.Stderr, "warning: -n %d is small; cold-start effects dominate below ~300000 instructions and gated-Vss is unfairly penalized\n", *n)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer st.Close()
		e.Store = st
	}

	csv = *asCSV
	start := time.Now()
	if *attackMode {
		intervals, perr := parseIntervals(*attackIvs)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			return 2
		}
		f, ferr := e.FrontierFigure(*scenario, 11, 110, intervals)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			return 2
		}
		if csv {
			fmt.Printf("# %s — %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Println(f)
		}
	}
	if *all {
		runFigure(e, 1)
		runTable(e, 1)
		runTable(e, 2)
		for _, f := range []int{3, 5, 7, 8, 10, 12} {
			runFigure(e, f)
		}
		runTable(e, 3)
	} else if *fig != 0 {
		runFigure(e, *fig)
	} else if *table != 0 {
		runTable(e, *table)
	}
	if e.StoreHits() > 0 {
		fmt.Fprintf(os.Stderr, "%d run(s) served from %s, %d executed\n",
			e.StoreHits(), *storeDir, e.Executed())
	}
	fmt.Fprintf(os.Stderr, "total %.1fs\n", time.Since(start).Seconds())

	code := 0
	if s := e.FailureSummary(); s != "" {
		fmt.Fprint(os.Stderr, s)
		if *storeDir != "" {
			fmt.Fprintf(os.Stderr, "re-run with -store %s to re-execute only the failed runs\n", *storeDir)
		}
		code = 1
	}
	if err := e.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	if err := tw.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	return code
}

func runFigure(e *sim.Experiments, fig int) {
	switch fig {
	case 1:
		for _, c := range sim.Figure1(tech.MustByNode(tech.Node70)) {
			fmt.Println(c)
		}
	case 3, 4:
		printPair(e.Figure3_4())
	case 5, 6:
		printPair(e.Figure5_6())
	case 7:
		printFigure(e.Figure7())
	case 8, 9:
		printPair(e.Figure8_9())
	case 10, 11:
		printPair(e.Figure10_11())
	case 12, 13:
		printPair(e.Figure12_13())
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %d (have 1, 3-13)\n", fig)
		os.Exit(2)
	}
}

func runTable(e *sim.Experiments, table int) {
	switch table {
	case 1:
		fmt.Println(sim.Table1())
	case 2:
		fmt.Println(sim.Table2(sim.DefaultMachine(11)))
	case 3:
		fmt.Println(e.Table3())
	default:
		fmt.Fprintf(os.Stderr, "unknown table %d (have 1-3)\n", table)
		os.Exit(2)
	}
}

// csv selects CSV output for figures.
var csv bool

// parseIntervals parses -attack-intervals ("1024,4096,...").
func parseIntervals(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("bad -attack-intervals entry %q (want positive integers)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-attack-intervals is empty")
	}
	return out, nil
}

func printFigure(f sim.Figure) {
	if csv {
		fmt.Printf("# %s — %s [%s]\n%s\n", f.ID, f.Title, f.Metric, f.CSV())
		return
	}
	fmt.Println(f)
}

func printPair(savings, perf sim.Figure) {
	printFigure(savings)
	printFigure(perf)
}
