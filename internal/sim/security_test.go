package sim

import (
	"path/filepath"
	"reflect"
	"testing"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// pinnedEnergyCellHash is the content address of (gzip, L2=11, drowsy,
// 4096) on the default machine, computed before the kind discriminator
// existed. The omitempty Kind field must keep every energy-cell hash
// byte-identical, or a deployed store's whole energy corpus silently
// invalidates.
const pinnedEnergyCellHash = "d221f4bb3edc9b4d4329c4447765fcb7d123121e741b1c7c7e8d425e158c23a3"

// The kind discriminator: an attack cell and an energy cell with otherwise
// identical coordinates must have different content addresses, and energy
// addresses must not move.
func TestKindDiscriminatorPreventsAliasing(t *testing.T) {
	mc := DefaultMachine(11)
	eh, err := CellHash(mc, "gzip", leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if eh != pinnedEnergyCellHash {
		t.Fatalf("energy-cell hash moved: %s != pinned %s (store corpus invalidated)", eh, pinnedEnergyCellHash)
	}
	// An attack scenario named like a benchmark, same technique/interval:
	// the closest possible aliasing candidate.
	sc, ok := attack.ByName("smoke")
	if !ok {
		t.Fatal("smoke scenario missing")
	}
	sc.Name = "gzip"
	ah, err := AttackHash(mc, sc, leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ah == eh {
		t.Fatal("attack cell aliases energy cell in the store")
	}
}

// Attack hashes ignore the process's energy instruction budget: an attack
// run's length is fixed by the scenario, so -n/-warmup must not fork the
// attack corpus (and local vs daemon hashes agree regardless of budgets).
func TestAttackHashIgnoresInstructionBudget(t *testing.T) {
	sc, _ := attack.ByName("smoke")
	a := DefaultMachine(11)
	b := DefaultMachine(11)
	b.Instructions = 77
	b.Warmup = 33
	ha, err := AttackHash(a, sc, leakctl.TechGated, 2048)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := AttackHash(b, sc, leakctl.TechGated, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("attack hash depends on energy budget: %s vs %s", ha, hb)
	}
	// But it must still track the actual hardware.
	c := DefaultMachine(17)
	hc, err := AttackHash(c, sc, leakctl.TechGated, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("attack hash ignores the machine's L2 latency")
	}
}

func attackExperiments() *Experiments {
	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 20_000
	e.Profiles = workload.Profiles()[:1]
	e.Workers = 1
	return e
}

// RunAttackCells resolves through the ladder and memoizes: results match a
// direct attack.Run bit-for-bit, unknown scenarios degrade to per-cell
// errors, and a repeated call re-executes nothing.
func TestRunAttackCellsMemoAndParity(t *testing.T) {
	e := attackExperiments()
	defer e.Close()
	specs := []AttackSpec{
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechNone, Interval: 0},
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048},
		{Scenario: "nope", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048},
	}
	outs, err := e.RunAttackCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[2].Err == nil {
		t.Fatal("unknown scenario did not fail its cell")
	}
	if outs[0].Err != nil || outs[1].Err != nil {
		t.Fatalf("attack cells failed: %v / %v", outs[0].Err, outs[1].Err)
	}
	if outs[0].Hash == "" || outs[1].Hash == "" || outs[0].Hash == outs[1].Hash {
		t.Fatalf("bad content addresses: %q vs %q", outs[0].Hash, outs[1].Hash)
	}
	// Parity with a direct run on the same hardware view.
	sc, _ := attack.ByName("smoke")
	direct, err := attack.Run(attackMachine(DefaultMachine(11)), sc, leakctl.DefaultParams(leakctl.TechDrowsy, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs[1].Result, direct) {
		t.Fatalf("ladder result diverges from direct run:\n %+v\n %+v", outs[1].Result, direct)
	}
	executed := e.Executed()
	again, err := e.RunAttackCells(specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[1].Result, outs[1].Result) || e.Executed() != executed {
		t.Fatalf("memo miss: executed %d -> %d", executed, e.Executed())
	}
}

// The content-addressed store serves attack cells across processes: a
// second experiment set over the same store simulates nothing and returns
// bit-identical results; energy cells and attack cells coexist in one
// store.
func TestAttackStoreAcrossProcesses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := []AttackSpec{
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048},
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechGated, Interval: 2048},
	}

	e1 := attackExperiments()
	e1.Store = st
	defer e1.Close()
	cold, err := e1.RunAttackCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range cold {
		if o.Err != nil {
			t.Fatalf("cold attack cell %s failed: %v", o.Key, o.Err)
		}
	}
	if e1.Executed() != len(specs) || e1.StoreHits() != 0 {
		t.Fatalf("cold run: executed=%d storeHits=%d", e1.Executed(), e1.StoreHits())
	}
	if err := e1.Err(); err != nil {
		t.Fatalf("cold run store error: %v", err)
	}

	e2 := attackExperiments()
	e2.Store = st
	defer e2.Close()
	warm, err := e2.RunAttackCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Executed() != 0 || e2.StoreHits() != len(specs) {
		t.Fatalf("warm run: executed=%d storeHits=%d, want 0/%d",
			e2.Executed(), e2.StoreHits(), len(specs))
	}
	for i := range specs {
		if warm[i].Err != nil {
			t.Fatalf("warm attack cell failed: %v", warm[i].Err)
		}
		if !reflect.DeepEqual(warm[i].Result, cold[i].Result) {
			t.Fatalf("store round trip not bit-identical:\n %+v\n %+v", warm[i].Result, cold[i].Result)
		}
	}
}

// The frontier figure: an uncontrolled reference row plus both techniques
// per interval, with drowsy and gated-Vss measurably separated in leakage —
// the paper's state-preserving distinction as information flow.
func TestFrontierFigure(t *testing.T) {
	e := attackExperiments()
	defer e.Close()
	f, err := e.FrontierFigure("smoke", 11, 110, []uint64{2048})
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario != "smoke" || len(f.Points) != 3 {
		t.Fatalf("frontier shape: %+v", f)
	}
	byTech := map[string]FrontierPoint{}
	for _, p := range f.Points {
		if p.AttackErr || p.SavingsErr {
			t.Fatalf("frontier point errored: %+v", p)
		}
		byTech[p.Technique] = p
	}
	none, drowsy, gated := byTech["none"], byTech["drowsy"], byTech["gated-vss"]
	if none.NetSavingsPct != 0 {
		t.Errorf("reference row has nonzero savings: %v", none.NetSavingsPct)
	}
	if drowsy.LeakageBits <= gated.LeakageBits {
		t.Errorf("drowsy leakage %.4f not above gated %.4f: decay masking lost",
			drowsy.LeakageBits, gated.LeakageBits)
	}
	if f.CSV() == "" || f.String() == "" {
		t.Error("frontier renders empty")
	}
	if _, err := e.FrontierFigure("nope", 11, 110, []uint64{2048}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// Attack cells resume from the store like energy cells: a second
// experiment set over the same store serves the attack run instead of
// re-simulating it.
func TestAttackCheckpointResume(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec := []AttackSpec{{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048}}

	e1 := attackExperiments()
	e1.Store = st
	first, err := e1.RunAttackCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}

	e2 := attackExperiments()
	e2.Store = st
	second, err := e2.RunAttackCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Err != nil {
		t.Fatal(second[0].Err)
	}
	if e2.Executed() != 0 || e2.StoreHits() != 1 {
		t.Fatalf("resume: executed=%d store_hits=%d, want 0/1", e2.Executed(), e2.StoreHits())
	}
	if !reflect.DeepEqual(second[0].Result, first[0].Result) {
		t.Fatalf("store round trip not bit-identical")
	}
}

// pinnedAttackCellHash is the content address of (smoke, L2=11, drowsy,
// 4096) on the default machine. Like pinnedEnergyCellHash it guards a
// deployed store: if it moves, every stored attack result silently
// invalidates.
const pinnedAttackCellHash = "dbe0afa4cae7179fc82ea0d8fbd0aa51c6050fb971a9b7f0244d1f23ffd48051"

func TestAttackHashPinned(t *testing.T) {
	sc, ok := attack.ByName("smoke")
	if !ok {
		t.Fatal("smoke scenario missing")
	}
	h, err := AttackHash(DefaultMachine(11), sc, leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if h != pinnedAttackCellHash {
		t.Fatalf("attack-cell hash moved: %s != pinned %s (store corpus invalidated)", h, pinnedAttackCellHash)
	}
}

// An invalid cell fails on its first attempt whatever its kind: a
// validation error is permanent, so retrying it only burns the backoff.
// Decay interval 2 is below the counter resolution for both kinds.
func TestInvalidCellsFailFast(t *testing.T) {
	e := attackExperiments()
	e.MaxRetries = 2
	defer e.Close()
	outs, err := e.RunCells([]CellSpec{{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2}})
	if err != nil {
		t.Fatal(err)
	}
	aouts, err := e.RunAttackCells([]AttackSpec{{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || outs[0].Err.Attempts != 1 {
		t.Errorf("energy cell: got %+v, want a failure after 1 attempt", outs[0].Err)
	}
	if aouts[0].Err == nil || aouts[0].Err.Attempts != 1 {
		t.Errorf("attack cell: got %+v, want a failure after 1 attempt", aouts[0].Err)
	}
}
