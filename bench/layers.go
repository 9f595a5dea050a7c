package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/cpu"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/stream"
	"hotleakage/internal/workload"
)

// perLayer are the metrics a traced run reports, in report order. Every
// workload reports all of them: a layer a workload does not cross reads 0
// calls or 0 ms, while the replayed per-call costs are measured on every
// workload from its own inputs.
var perLayer = []struct{ name, unit string }{
	{"op.tail_ms", "ms"},
	{"workload.gen_ns_per_instr", "ns"},
	{"cpu.fill_ns_per_instr", "ns"},
	{"cpu.backend_ns_per_instr", "ns"},
	{"cpu.stage_fetch_ns_per_sample", "ns"},
	{"cpu.stage_dispatch_ns_per_sample", "ns"},
	{"cpu.stage_issue_ns_per_sample", "ns"},
	{"cpu.stage_commit_ns_per_sample", "ns"},
	{"cpu.stage_tick_ns_per_sample", "ns"},
	{"cpu.stage_extrapolation_ratio", "ratio"},
	{"cpu.cycles", "count"},
	{"cpu.instructions", "count"},
	{"cpu.mispredicts", "count"},
	{"leakctl.access_ns", "ns"},
	{"leakctl.l2_ns_per_sampled_miss", "ns"},
	{"leakctl.dl1_accesses", "count"},
	{"leakctl.slow_hits", "count"},
	{"leakctl.induced_misses", "count"},
	{"leakctl.sleep_transitions", "count"},
	{"energy.eval_us_per_cell", "us"},
	{"sim.lanes_per_group", "lanes"},
	{"sim.front_fill_live", "count/op"},
	{"sim.front_fill_trace", "count/op"},
	{"sim.trace_cache_hits", "count/op"},
	{"sim.cpu_utilization", "ratio"},
	{"sim.figure_ms.Figure3_4", "ms"},
	{"sim.figure_ms.Figure5_6", "ms"},
	{"sim.figure_ms.Figure7", "ms"},
	{"sim.figure_ms.Figure8_9", "ms"},
	{"sim.figure_ms.Figure10_11", "ms"},
	{"sim.figure_ms.Figure12_13", "ms"},
	{"sim.figure_ms.Table3", "ms"},
	{"sim.figure_ms.FrontierFigure", "ms"},
	{"harness.runs_completed", "count/op"},
	{"harness.retries", "count/op"},
	{"harness.checkpoint_hits", "count/op"},
	{"store.cell_hash_us", "us"},
	{"store.get_us", "us"},
	{"store.put_fsync_us", "us"},
	{"store.open_us_per_record", "us"},
	{"store.hits", "count/op"},
	{"store.misses", "count/op"},
	{"store.bytes", "B"},
	{"api.expand_us", "us"},
	{"http.submit_ms", "ms"},
	{"http.status_ms", "ms"},
	{"http.events_ms", "ms"},
	{"http.cell_ms", "ms"},
	{"server.handler_ms.submit", "ms"},
	{"server.handler_ms.status", "ms"},
	{"server.handler_ms.events", "ms"},
	{"server.handler_ms.cell", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.rejected", "count/op"},
	{"stream.hub_write_ns", "ns"},
	{"stream.events_per_sweep", "count/op"},
	{"stream.done_lag_ms", "ms"},
	{"cluster.shards", "count/op"},
	{"cluster.steals", "count/op"},
	{"cluster.cells_acked", "count/op"},
	{"cluster.worker_polls_per_shard", "count"},
	{"cluster.worker_run_ms", "ms"},
	{"cluster.ack_wait_ms", "ms"},
	{"attack.run_us_per_cell", "us"},
	{"attack.probes", "count/op"},
	{"channel.estimates", "count/op"},
	{"ledger.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layerInputs are a workload's own inputs, replayed through each layer's
// public function after the timed phase of a traced run.
type layerInputs struct {
	profiles      []workload.Profile
	cells         []sim.CellSpec
	attacks       []sim.AttackSpec
	instr, warmup uint64
	request       api.SweepRequest // one operation's request in wire form
	storeBytes    int64            // the front door's store after the run
}

// layerCosts are the replayed per-call costs.
type layerCosts struct {
	genNs, fillNs, backendNs float64 // per instruction
	accessNs                 float64 // per D-cache access
	evalUs, attackUs         float64 // per cell
	hashUs, getUs, putUs     float64 // per call
	openUs                   float64 // per record
	expandUs                 float64 // per request
	hubWriteNs, spanNs       float64 // per record
}

// layerCalls are the calls each replayed layer received in the timed phase.
type layerCalls struct {
	frontInstr   float64 // instructions generated and predicted
	backendInstr float64 // instructions committed
	dl1Accesses  float64 // D-cache accesses, part of the backend
	evals        float64
	attacks      float64
	hashes       float64
	gets, puts   float64
	expands      float64
	hubWrites    float64
}

// simCalls derives the simulator layers' calls from the counters: every
// lockstep group fills one front and every scalar run generates its own
// stream, each over the whole per-cell budget; cores commit what the
// instruction counter says.
func simCalls(d deltas, budget uint64) layerCalls {
	scalar := max(d.f(obs.MetricRunsCompleted)-d.f(obs.MetricBatchLanes)-d.f(obs.MetricAttackRuns), 0)
	return layerCalls{
		frontInstr:   float64(budget) * (d.f(obs.MetricBatchGroups) + scalar),
		backendInstr: d.f(obs.MetricInstructions),
		dl1Accesses:  d.f("leakctl_dl1_accesses_total"),
		attacks:      d.f(obs.MetricAttackRuns),
	}
}

// timed is the timed phase's outcome the per-layer metrics need.
type timed struct {
	ops     int
	lat     []float64 // ms per successful operation
	elapsed time.Duration
	cpu     time.Duration
	spans   []span
}

// perCall runs f reps times and returns the median cost per call in ns; f
// reports how many calls it timed and how long they took, so set-up it
// does before starting its clock stays out of the measurement.
func perCall(reps int, f func() (calls int, took time.Duration, err error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		n, d, err := f()
		if err != nil {
			return 0, err
		}
		if n > 0 {
			xs = append(xs, float64(d.Nanoseconds())/float64(n))
		}
	}
	return median(xs), nil
}

const replayReps = 3

// replayLayers times each layer's public function on the workload's own
// inputs: the generator, Front.Fill, Core.Run over a filled front,
// DCache.Access, EvaluateRun, attack.Run, CellHash, Store.Put/Get/Open,
// ExpandCells with RequestHash, Hub.Write, and the tracer's own span.
func replayLayers(ctx context.Context, r *run, in layerInputs, chk *checker) (layerCosts, error) {
	var c layerCosts
	var err error
	n := r.s.ReplayInstr
	profile := func(name string) workload.Profile {
		for _, p := range in.profiles {
			if p.Name == name {
				return p
			}
		}
		p, _ := workload.ByName(name)
		return p
	}
	per := max(int(n)/len(in.profiles), 10_000)
	if c.genNs, err = perCall(replayReps, func() (int, time.Duration, error) {
		gens := make([]*workload.Generator, len(in.profiles))
		for i, p := range in.profiles {
			gens[i] = workload.NewGenerator(p)
		}
		var ins workload.Instr
		t := time.Now()
		for _, g := range gens {
			for j := 0; j < per; j++ {
				g.Next(&ins)
			}
		}
		return len(gens) * per, time.Since(t), nil
	}); err != nil {
		return c, err
	}

	mc0 := machine(in.cells[0].L2, in.instr, in.warmup)
	var front cpu.Front
	if c.fillNs, err = perCall(replayReps, func() (int, time.Duration, error) {
		total, took := 0, time.Duration(0)
		for _, p := range in.profiles {
			g, pred := workload.NewGenerator(p), bpred.New(mc0.Bpred)
			t := time.Now()
			front.Fill(g, pred, uint64(per))
			took += time.Since(t)
			total += per
		}
		return total, took, nil
	}); err != nil {
		return c, err
	}

	// The backend replays a seeded sample of the workload's cells, each over
	// a front filled beforehand so only Core.Run is on the clock, and each
	// after the cell's own warm-up, which a fresh core pays in page faults
	// that the simulator's pooled lanes do not. The cost per instruction
	// differs between techniques and intervals, so the sample is timed as a
	// whole: the ledger needs the mean, not one cell's.
	rng := r.rng(streamInputs + 1)
	backendCells := sample(rng, in.cells, 8)
	perCell := n / 2
	if c.backendNs, err = perCall(replayReps, func() (int, time.Duration, error) {
		var took time.Duration
		for _, cs := range backendCells {
			mc := machine(cs.L2, in.instr, in.warmup)
			core, _, err := buildCore(mc, leakctl.DefaultParams(cs.Technique, cs.Interval))
			if err != nil {
				return 0, 0, err
			}
			// The slack covers the core's fetch-ahead past the last
			// committed instruction.
			front.Fill(workload.NewGenerator(profile(cs.Bench)), bpred.New(mc.Bpred), in.warmup+perCell+4096)
			core.AttachFront(&front)
			core.Run(in.warmup)
			t := time.Now()
			core.Run(perCell)
			took += time.Since(t)
		}
		return len(backendCells) * int(perCell), took, nil
	}); err != nil {
		return c, err
	}

	// D-cache accesses replay the memory references of the first sampled
	// cell's stream against a controller under that cell's technique (a
	// baseline cell is replayed under drowsy, so the controller does work).
	cs := backendCells[0]
	params := leakctl.DefaultParams(cs.Technique, cs.Interval)
	if cs.Technique == leakctl.TechNone {
		params = leakctl.DefaultParams(leakctl.TechDrowsy, sim.DefaultInterval)
	}
	type ref struct {
		addr  uint64
		write bool
	}
	var refs []ref
	g := workload.NewGenerator(profile(cs.Bench))
	var ins workload.Instr
	for len(refs) < int(n)/2 {
		g.Next(&ins)
		if ins.Op.IsMem() {
			refs = append(refs, ref{ins.Addr, ins.Op == workload.OpStore})
		}
	}
	if c.accessNs, err = perCall(replayReps, func() (int, time.Duration, error) {
		mc := machine(cs.L2, in.instr, in.warmup)
		_, dl1, err := buildCore(mc, params)
		if err != nil {
			return 0, 0, err
		}
		cycle := uint64(0)
		t := time.Now()
		for _, rf := range refs {
			cycle += 3
			if cycle >= dl1.NextTickEvent() {
				dl1.Tick(cycle)
			}
			dl1.Access(rf.addr, rf.write, cycle)
		}
		return len(refs), time.Since(t), nil
	}); err != nil {
		return c, err
	}

	if c.evalUs, err = replayEval(ctx, chk, in, profile); err != nil {
		return c, err
	}
	if c.attackUs, err = replayAttack(r, in, chk); err != nil {
		return c, err
	}

	hashCells := sample(rng, in.cells, 64)
	mcs := make([]sim.MachineConfig, len(hashCells))
	for i, cs := range hashCells {
		mcs[i] = machine(cs.L2, in.instr, in.warmup)
	}
	if c.hashUs, err = perCall(replayReps, func() (int, time.Duration, error) {
		t := time.Now()
		for i, cs := range hashCells {
			if _, err := sim.CellHash(mcs[i], cs.Bench, cs.Technique, cs.Interval); err != nil {
				return 0, 0, err
			}
		}
		return len(hashCells), time.Since(t), nil
	}); err != nil {
		return c, err
	}
	c.hashUs /= 1e3

	if err := replayStore(r, in, chk, &c); err != nil {
		return c, err
	}

	if c.expandUs, err = perCall(replayReps, func() (int, time.Duration, error) {
		const calls = 50
		t := time.Now()
		for i := 0; i < calls; i++ {
			_, _, wire, err := api.ExpandCells(in.request)
			if err != nil {
				return 0, 0, err
			}
			if _, err := api.RequestHash(in.request.Instructions, in.request.Warmup, wire); err != nil {
				return 0, 0, err
			}
		}
		return calls, time.Since(t), nil
	}); err != nil {
		return c, err
	}
	c.expandUs /= 1e3

	if c.hubWriteNs, err = perCall(replayReps, func() (int, time.Duration, error) {
		const writes = 20_000
		hub := stream.NewHub()
		_, ch, cancel := hub.Subscribe()
		defer cancel()
		drained := make(chan struct{})
		go func() {
			for range ch {
			}
			close(drained)
		}()
		rec := obs.Record{Type: "run_done", RunID: in.cells[0].Key(), Attempt: 1}
		t := time.Now()
		for i := 0; i < writes; i++ {
			hub.Write(rec)
		}
		took := time.Since(t)
		hub.Close()
		<-drained
		return writes, took, nil
	}); err != nil {
		return c, err
	}

	c.spanNs, err = perCall(replayReps, func() (int, time.Duration, error) {
		const spans = 100_000
		tr := newTracer()
		t := time.Now()
		for i := 0; i < spans; i++ {
			id, st := tr.begin()
			tr.end(id, 1, "http.cell", "s-000001", st)
		}
		return spans, time.Since(t), nil
	})
	return c, err
}

// buildCore assembles the simulated machine from its public constructors,
// as the simulator does for a run.
func buildCore(mc sim.MachineConfig, params leakctl.Params) (*cpu.Core, *leakctl.DCache, error) {
	mem := cache.NewMemory(mc.Tech, mc.MemLatency)
	l2, err := cache.New(mc.Tech, mc.L2, mem)
	if err != nil {
		return nil, nil, err
	}
	dl1, err := leakctl.New(mc.Tech, mc.L1D, params, l2)
	if err != nil {
		return nil, nil, err
	}
	il1, err := cache.New(mc.Tech, mc.L1I, l2)
	if err != nil {
		return nil, nil, err
	}
	return cpu.New(mc.CPU, nil, bpred.New(mc.Bpred), il1, dl1), dl1, nil
}

// replayEval times Suite.EvaluateRun on the check sample's results, with
// their baselines simulated beforehand.
func replayEval(ctx context.Context, chk *checker, in layerInputs, profile func(string) workload.Profile) (float64, error) {
	if len(chk.results) == 0 {
		return 0, fmt.Errorf("no checked energy results to evaluate")
	}
	suites := make(map[int]*sim.Suite)
	for _, cs := range chk.cells {
		s := suites[cs.L2]
		if s == nil {
			s = sim.NewSuite(machine(cs.L2, in.instr, in.warmup))
			suites[cs.L2] = s
		}
		if _, err := s.Baseline(ctx, profile(cs.Bench)); err != nil {
			return 0, err
		}
	}
	model := leakage.New(machine(chk.cells[0].L2, in.instr, in.warmup).Tech)
	us, err := perCall(replayReps, func() (int, time.Duration, error) {
		const rounds = 40
		t := time.Now()
		for i := 0; i < rounds; i++ {
			for j, res := range chk.results {
				cs := chk.cells[j]
				if _, err := suites[cs.L2].EvaluateRun(ctx, profile(cs.Bench), res, 110, model); err != nil {
					return 0, 0, err
				}
			}
		}
		return rounds * len(chk.results), time.Since(t), nil
	})
	return us / 1e3, err
}

// replayAttack times attack.Run on the workload's attack cells, or on the
// frontier scenarios under drowsy when the workload has none.
func replayAttack(r *run, in layerInputs, chk *checker) (float64, error) {
	specs := chk.attacks
	if len(specs) == 0 {
		specs = sample(r.rng(streamInputs+2), in.attacks, r.s.CheckAttack)
	}
	if len(specs) == 0 {
		for _, sc := range r.s.FrontierScenarios {
			specs = append(specs, sim.AttackSpec{Scenario: sc, L2: r.s.FrontierL2,
				Technique: leakctl.TechDrowsy, Interval: sim.DefaultInterval})
		}
	}
	us, err := perCall(replayReps, func() (int, time.Duration, error) {
		t := time.Now()
		for _, as := range specs {
			sc, ok := attack.ByName(as.Scenario)
			if !ok {
				return 0, 0, fmt.Errorf("unknown attack scenario %q", as.Scenario)
			}
			if _, err := attack.Run(attackMachine(as.L2), sc, leakctl.DefaultParams(as.Technique, as.Interval)); err != nil {
				return 0, 0, err
			}
		}
		return len(specs), time.Since(t), nil
	})
	return us / 1e3, err
}

// replayStore times Store.Put (each with its fsync), Store.Get and a
// reopen of a fresh store holding the check sample's results under
// distinct content addresses.
func replayStore(r *run, in layerInputs, chk *checker, c *layerCosts) error {
	const records = 64
	dir, err := os.MkdirTemp(r.dir, "replay-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	hashes := make([]string, records)
	keys := make([]sim.CellSpec, records)
	for i := range hashes {
		cs := in.cells[i%len(in.cells)]
		cs.Technique, cs.Interval = leakctl.TechDrowsy, uint64(100_000+i)
		keys[i] = cs
		if hashes[i], err = sim.CellHash(machine(cs.L2, in.instr, in.warmup), cs.Bench, cs.Technique, cs.Interval); err != nil {
			st.Close()
			return err
		}
	}
	t := time.Now()
	for i, h := range hashes {
		if err := st.Put(h, keys[i], chk.results[i%len(chk.results)]); err != nil {
			st.Close()
			return err
		}
	}
	c.putUs = float64(time.Since(t).Microseconds()) / records
	c.getUs, err = perCall(replayReps, func() (int, time.Duration, error) {
		t := time.Now()
		for _, h := range hashes {
			if _, ok, err := st.Get(h); err != nil || !ok {
				return 0, 0, fmt.Errorf("replayed get %s: found %v, %v", h, ok, err)
			}
		}
		return records, time.Since(t), nil
	})
	c.getUs /= 1e3
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t = time.Now()
	st, err = store.Open(dir)
	if err != nil {
		return err
	}
	c.openUs = float64(time.Since(t).Microseconds()) / records
	return st.Close()
}

// perLayerMetrics assembles the traced run's per-layer metrics, and the
// sample count of each one that is a median.
func perLayerMetrics(r *run, in layerInputs, c layerCosts, chk *checker, d deltas, t timed, k layerCalls) (map[string]metric, map[string]int) {
	ops := float64(t.ops)
	perOp := func(counter string) float64 { return d.f(counter) / ops }
	sd := chk.sampler
	sampled := sd.f("sim_stage_sampled_cycles_total")
	stages := []string{"fetch", "dispatch", "issue", "commit", "tick"}
	stageNs := make(map[string]float64)
	var stageSum float64
	for _, s := range stages {
		v := sd.f("sim_stage_" + s + "_ns_total")
		stageNs[s] = v / sampled
		stageSum += v
	}
	// The stage timers sample one cycle in 1024; scaled by cycles per
	// sampled cycle they should add up to the time the cores ran.
	extrapolation := stageSum * (sd.f("sim_cycles_total") / sampled) / float64(chk.wall.Nanoseconds())

	samples := make(map[string]int)
	med := func(metric string, xs []float64) float64 {
		samples[metric] = len(xs)
		return median(xs)
	}
	// spanMs is the median duration of the spans of the given names.
	spanMs := func(metric string, names ...string) float64 {
		var xs []float64
		for _, s := range t.spans {
			if slices.Contains(names, s.Name) {
				xs = append(xs, ms(s.dur()))
			}
		}
		return med(metric, xs)
	}
	// figureMs is the median over operations of the time each spent in one
	// figure method; FrontierFigure is called once per scenario.
	figureMs := func(id string) float64 {
		byOp := make(map[int64]float64)
		for _, s := range t.spans {
			if s.Name == "sim."+id || strings.HasPrefix(s.Name, "sim."+id+".") {
				byOp[s.Parent] += ms(s.dur())
			}
		}
		xs := make([]float64, 0, len(byOp))
		for _, x := range byOp {
			xs = append(xs, x)
		}
		return med("sim.figure_ms."+id, xs)
	}
	count := func(name string) float64 {
		n := 0.0
		for _, s := range t.spans {
			if s.Name == name {
				n++
			}
		}
		return n
	}
	workerRun, ackWait := shardTimes(t.spans)
	// The tail is the highest percentile with ten operations beyond it; a
	// run too short for any such percentile reports 0.
	tail := 0.0
	if p, ok := ruleTail(len(t.lat)); ok {
		tail = percentile(t.lat, p)
		samples["op.tail_ms"] = len(t.lat)
	}

	v := map[string]float64{
		"op.tail_ms":                       tail,
		"workload.gen_ns_per_instr":        c.genNs,
		"cpu.fill_ns_per_instr":            c.fillNs,
		"cpu.backend_ns_per_instr":         c.backendNs,
		"cpu.stage_extrapolation_ratio":    extrapolation,
		"leakctl.access_ns":                c.accessNs,
		"leakctl.l2_ns_per_sampled_miss":   sd.f("leakctl_dl1_l2_ns_total") / sd.f("leakctl_dl1_l2_sampled_misses_total"),
		"energy.eval_us_per_cell":          c.evalUs,
		"sim.lanes_per_group":              d.f(obs.MetricBatchLanes) / d.f(obs.MetricBatchGroups),
		"sim.front_fill_live":              perOp("sim_front_fill_live_total"),
		"sim.front_fill_trace":             perOp("sim_front_fill_trace_total"),
		"sim.trace_cache_hits":             perOp(obs.MetricTraceCacheHits),
		"sim.cpu_utilization":              t.cpu.Seconds() / (t.elapsed.Seconds() * float64(r.s.Workers)),
		"harness.runs_completed":           perOp(obs.MetricRunsCompleted),
		"harness.retries":                  perOp("harness_retries_total"),
		"harness.checkpoint_hits":          perOp(obs.MetricCheckpointHits),
		"store.cell_hash_us":               c.hashUs,
		"store.get_us":                     c.getUs,
		"store.put_fsync_us":               c.putUs,
		"store.open_us_per_record":         c.openUs,
		"store.hits":                       perOp(obs.MetricStoreHits),
		"store.misses":                     perOp(obs.MetricStoreMisses),
		"store.bytes":                      float64(in.storeBytes),
		"api.expand_us":                    c.expandUs,
		"server.queue_wait_ms":             med("server.queue_wait_ms", r.det.get("server.queue_wait_ms")),
		"server.run_ms":                    med("server.run_ms", r.det.get("server.run_ms")),
		"server.rejected":                  perOp(obs.MetricSweepsRejected),
		"stream.hub_write_ns":              c.hubWriteNs,
		"stream.events_per_sweep":          sum(r.det.get("stream.events")) / ops,
		"stream.done_lag_ms":               med("stream.done_lag_ms", r.det.get("stream.done_lag_ms")),
		"cluster.shards":                   perOp(obs.MetricClusterShards),
		"cluster.steals":                   perOp(obs.MetricClusterSteals),
		"cluster.cells_acked":              perOp(obs.MetricClusterCellsAcked),
		"cluster.worker_polls_per_shard":   count("dispatch.status") / count("dispatch.submit"),
		"cluster.worker_run_ms":            med("cluster.worker_run_ms", workerRun),
		"cluster.ack_wait_ms":              med("cluster.ack_wait_ms", ackWait),
		"attack.run_us_per_cell":           c.attackUs,
		"attack.probes":                    perOp(obs.MetricAttackProbes),
		"channel.estimates":                perOp(obs.MetricChannelEstimates),
		"trace.overhead_frac":              c.spanNs * float64(len(t.spans)) / float64(t.cpu.Nanoseconds()),
		"ledger.residual_frac":             ledger(c, k, t.cpu)["residual_frac"],
		"cpu.stage_fetch_ns_per_sample":    stageNs["fetch"],
		"cpu.stage_dispatch_ns_per_sample": stageNs["dispatch"],
		"cpu.stage_issue_ns_per_sample":    stageNs["issue"],
		"cpu.stage_commit_ns_per_sample":   stageNs["commit"],
		"cpu.stage_tick_ns_per_sample":     stageNs["tick"],
	}
	for _, ec := range exactCounts {
		v[ec.metric] = float64(chk.counts[ec.metric])
	}
	for _, f := range paperFigures {
		v["sim.figure_ms."+f.name] = figureMs(f.name)
	}
	v["sim.figure_ms.FrontierFigure"] = figureMs("FrontierFigure")
	for _, rt := range []string{"submit", "status", "events", "cell"} {
		v["http."+rt+"_ms"] = spanMs("http."+rt+"_ms", "http."+rt)
		v["server.handler_ms."+rt] = spanMs("server.handler_ms."+rt, "coord."+rt)
	}
	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out[pl.name] = metric{v[pl.name], pl.unit}
	}
	return out, samples
}

// shardTimes times each shard the coordinator sent a worker, from the
// dispatch spans: the worker's event stream opens as the shard is accepted
// and closes at its terminal event (run), and the coordinator learns the
// verdict from its last status poll (wait). Sweep IDs are per worker, so
// spans pair up by host and sweep.
func shardTimes(spans []span) (run, wait []float64) {
	type shard struct{ host, sweep string }
	type times struct{ open, closed, verdict int64 }
	by := make(map[shard]*times)
	for _, s := range spans {
		if s.Sweep == "" || (s.Name != "dispatch.events" && s.Name != "dispatch.status") {
			continue
		}
		k := shard{s.Host, s.Sweep}
		tm := by[k]
		if tm == nil {
			tm = &times{}
			by[k] = tm
		}
		if s.Name == "dispatch.events" {
			tm.open, tm.closed = s.Start, s.End
		} else {
			tm.verdict = max(tm.verdict, s.End)
		}
	}
	for _, tm := range by {
		if tm.open == 0 || tm.verdict == 0 {
			continue
		}
		run = append(run, ms(time.Duration(tm.closed-tm.open)))
		wait = append(wait, ms(time.Duration(tm.verdict-tm.open)))
	}
	return run, wait
}

// ledger multiplies each replayed per-call cost by the timed phase's call
// count and sets the sum against the process CPU time; the residual is
// what no replayed layer explains (HTTP and JSON, scheduling, GC, and
// every layer the replays do not cover).
func ledger(c layerCosts, k layerCalls, cpu time.Duration) map[string]float64 {
	l := map[string]float64{
		"front_s":   c.fillNs * k.frontInstr / 1e9,
		"backend_s": c.backendNs * k.backendInstr / 1e9,
		"energy_s":  c.evalUs * k.evals / 1e6,
		"attack_s":  c.attackUs * k.attacks / 1e6,
		"store_s":   (c.hashUs*k.hashes + c.getUs*k.gets + c.putUs*k.puts) / 1e6,
		"api_s":     c.expandUs * k.expands / 1e6,
		"stream_s":  c.hubWriteNs * k.hubWrites / 1e9,
	}
	explained := 0.0
	for _, x := range l {
		explained += x
	}
	// Parts of the terms above, shown for orientation: the generator runs
	// inside every front fill and the controller inside the backend.
	l["generator_in_front_s"] = c.genNs * k.frontInstr / 1e9
	l["leakctl_in_backend_s"] = c.accessNs * k.dl1Accesses / 1e9
	l["cpu_s"] = cpu.Seconds()
	l["residual_s"] = cpu.Seconds() - explained
	l["residual_frac"] = l["residual_s"] / cpu.Seconds()
	return l
}

func ledgerLine(l map[string]float64) string {
	return fmt.Sprintf("cpu %.3f s = front %.3f + backend %.3f + energy %.3f + attack %.3f + store %.3f + api %.3f + stream %.3f + residual %.3f (%.1f%%); generator within front %.3f, leakctl within backend %.3f",
		l["cpu_s"], l["front_s"], l["backend_s"], l["energy_s"], l["attack_s"], l["store_s"], l["api_s"], l["stream_s"],
		l["residual_s"], 100*l["residual_frac"], l["generator_in_front_s"], l["leakctl_in_backend_s"])
}
