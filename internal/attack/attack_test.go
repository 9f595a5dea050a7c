package attack

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hotleakage/internal/cache"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/tech"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the attack golden fixtures")

// testMachine is the Table 2 L1D/L2/memory hierarchy (sim.DefaultMachine's
// cache slice), built directly so the package tests do not import sim.
func testMachine() Machine {
	return Machine{
		Tech: tech.MustByNode(tech.Node70),
		L1D: cache.Config{
			Name: "dl1", SizeBytes: 64 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: 2,
		},
		L2: cache.Config{
			Name: "ul2", SizeBytes: 2 * 1024 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: 11, Banks: 8,
		},
		MemLatency: 100,
	}
}

func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := ByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc
}

func mustRun(t *testing.T, sc Scenario, tq leakctl.Technique, interval uint64) Result {
	t.Helper()
	res, err := Run(testMachine(), sc, leakctl.DefaultParams(tq, interval))
	if err != nil {
		t.Fatalf("Run(%s, %v/%d): %v", sc.Name, tq, interval, err)
	}
	return res
}

// The seeded generator and the cycle-accurate hardware make a Result
// bit-reproducible: two runs of the same (machine, scenario, params) triple
// agree on every field, floats included. Run under -race in CI, this also
// proves the runner shares no hidden mutable state.
func TestRunDeterministic(t *testing.T) {
	sc := mustScenario(t, "ws-select")
	a := mustRun(t, sc, leakctl.TechDrowsy, 4096)
	b := mustRun(t, sc, leakctl.TechDrowsy, 4096)
	if a != b {
		t.Errorf("repeated runs differ:\n a=%+v\n b=%+v", a, b)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("JSON encodings differ:\n %s\n %s", ja, jb)
	}
}

// The paper's state-preserving / non-state-preserving distinction as an
// information-flow result: with the decay interval inside the idle gap,
// drowsy decay keeps evictions distinguishable (slow hit vs miss) while
// gated-Vss decay turns every probe into a miss, masking the victim.
func TestDrowsyLeaksWhereGatedMasks(t *testing.T) {
	sc := mustScenario(t, "ws-select")
	const interval = 4096 // < IdleGap 8192: every surviving line decays before the probe
	none := mustRun(t, sc, leakctl.TechNone, 0)
	drowsy := mustRun(t, sc, leakctl.TechDrowsy, interval)
	gated := mustRun(t, sc, leakctl.TechGated, interval)

	if none.LeakageBits() < 0.5 {
		t.Errorf("uncontrolled cache leaks %.3f bits; prime+probe should see the working set", none.LeakageBits())
	}
	if drowsy.LeakageBits() < 0.5 {
		t.Errorf("drowsy leaks only %.3f bits; slow hits should keep evictions visible", drowsy.LeakageBits())
	}
	if gap := drowsy.LeakageBits() - gated.LeakageBits(); gap < 0.25 {
		t.Errorf("drowsy %.3f bits vs gated %.3f bits (gap %.3f): gated decay should mask the channel",
			drowsy.LeakageBits(), gated.LeakageBits(), gap)
	}
	if drowsy.SlowHits == 0 {
		t.Error("drowsy run saw no slow hits; decay never engaged inside the idle gap")
	}
	if gated.SlowHits != 0 {
		t.Errorf("gated run classified %d slow hits; gated standby must read as a miss", gated.SlowHits)
	}
}

// A gated interval longer than every idle period never decays a primed
// line, so gated degenerates to the uncontrolled channel — decay only masks
// when it actually fires.
func TestLongGatedIntervalStillLeaks(t *testing.T) {
	sc := mustScenario(t, "smoke")
	none := mustRun(t, sc, leakctl.TechNone, 0)
	lazy := mustRun(t, sc, leakctl.TechGated, 1<<20)
	if d := none.LeakageBits() - lazy.LeakageBits(); d > 1e-9 || d < -1e-9 {
		t.Errorf("gated@2^20 leaks %.6f bits, uncontrolled %.6f: a never-firing interval must match",
			lazy.LeakageBits(), none.LeakageBits())
	}
}

func TestScenarioRegistry(t *testing.T) {
	if len(Scenarios()) < 2 {
		t.Fatalf("want at least 2 registered scenarios, have %d", len(Scenarios()))
	}
	for _, sc := range Scenarios() {
		if err := sc.Validate(); err != nil {
			t.Errorf("registered scenario invalid: %v", err)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown scenario")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	base := mustScenario(t, "smoke")
	bad := []func(*Scenario){
		func(s *Scenario) { s.Name = "" },
		func(s *Scenario) { s.Secrets = 1 },
		func(s *Scenario) { s.TargetSets = 0 },
		func(s *Scenario) { s.SecretSets = 0 },
		func(s *Scenario) { s.SecretSets = s.TargetSets + 1 },
		func(s *Scenario) { s.VictimRing.Lines = 0 },
		func(s *Scenario) { s.VictimRing.P = 0 },
		func(s *Scenario) { s.VictimRing.P = 1.5 },
		func(s *Scenario) { s.VictimAccesses = 0 },
		func(s *Scenario) { s.IdleGap = 0 },
		func(s *Scenario) { s.Trials = 0 },
	}
	for i, mut := range bad {
		sc := base
		mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d: bad scenario validated", i)
		}
	}
	sc := base
	sc.SetBase = 1 << 20
	if _, err := Run(testMachine(), sc, leakctl.DefaultParams(leakctl.TechNone, 0)); err == nil {
		t.Error("Run accepted a target window beyond the last L1 set")
	}
}

// Golden fixture: one scenario's full metric output pinned bit-for-bit
// (shortest-form float JSON round-trips exactly). Refresh with
// `go test ./internal/attack -run Golden -update-golden`.
func TestGoldenSmokeMetrics(t *testing.T) {
	sc := mustScenario(t, "smoke")
	res := mustRun(t, sc, leakctl.TechDrowsy, 2048)
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", "smoke-drowsy-2048.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden drift in %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
