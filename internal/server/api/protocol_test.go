package api

import (
	"testing"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/sim"
)

// TestExpandCells covers request validation and normalization.
func TestExpandCells(t *testing.T) {
	specs, attacks, wire, err := ExpandCells(SweepRequest{
		Benchmarks:       []string{"gzip", "gcc"},
		Techniques:       []string{"drowsy"},
		Intervals:        []uint64{1024, 4096},
		IncludeBaselines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 benches × (1 baseline + 2 drowsy intervals) = 6.
	if len(specs) != 6 || len(wire) != 6 || len(attacks) != 0 {
		t.Fatalf("expanded %d cells, want 6", len(specs))
	}

	// Baselines normalize interval to 0 and deduplicate.
	specs, _, _, err = ExpandCells(SweepRequest{Cells: []Cell{
		{Bench: "gzip", L2: 11, Technique: "none", Interval: 555},
		{Bench: "gzip", L2: 11, Technique: "baseline", Interval: 777},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Interval != 0 {
		t.Fatalf("baseline normalization: %+v", specs)
	}

	if _, _, _, err := ExpandCells(SweepRequest{Cells: []Cell{
		{Bench: "no-such-bench", L2: 11, Technique: "drowsy", Interval: 4096},
	}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, _, _, err := ExpandCells(SweepRequest{Cells: []Cell{
		{Bench: "gzip", L2: 11, Technique: "quantum", Interval: 4096},
	}}); err == nil {
		t.Error("unknown technique accepted")
	}
	if _, _, _, err := ExpandCells(SweepRequest{Cells: []Cell{
		{Bench: "gzip", L2: 0, Technique: "drowsy", Interval: 4096},
	}}); err == nil {
		t.Error("nonpositive L2 accepted")
	}
}

// TestExpandAttackCells covers the attack cell kind: explicit cells,
// the scenario cross product, dedup, normalization, and the wire-order
// contract (energy cells first, then attack cells).
func TestExpandAttackCells(t *testing.T) {
	specs, attacks, wire, err := ExpandCells(SweepRequest{
		Cells: []Cell{
			{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
			{Kind: KindAttack, Scenario: "smoke", L2: 11, Technique: "drowsy", Interval: 4096},
			{Kind: KindAttack, Scenario: "smoke", L2: 11, Technique: "drowsy", Interval: 4096}, // dup
			{Kind: KindAttack, Scenario: "smoke", L2: 11, Technique: "none", Interval: 999},    // normalizes to 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || len(attacks) != 2 || len(wire) != 3 {
		t.Fatalf("expanded specs=%d attacks=%d wire=%d, want 1/2/3", len(specs), len(attacks), len(wire))
	}
	if attacks[1].Interval != 0 {
		t.Errorf("attack baseline interval not normalized: %d", attacks[1].Interval)
	}
	// Wire order: energy first, then attacks, each in discovery order.
	if wire[0].Kind != "" || wire[0].Bench != "gzip" {
		t.Errorf("wire[0] not the energy cell: %+v", wire[0])
	}
	if wire[1].Kind != KindAttack || wire[1].Scenario != "smoke" {
		t.Errorf("wire[1] not the attack cell: %+v", wire[1])
	}

	// Scenario cross product rides the same techniques/intervals axes.
	specs, attacks, _, err = ExpandCells(SweepRequest{
		Scenarios:        []string{"smoke"},
		Techniques:       []string{"drowsy", "gated-vss"},
		Intervals:        []uint64{1024, 4096},
		L2Latencies:      []int{11},
		IncludeBaselines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline + 2 techniques × 2 intervals = 5, no energy cells.
	if len(specs) != 0 || len(attacks) != 5 {
		t.Fatalf("scenario cross product: specs=%d attacks=%d, want 0/5", len(specs), len(attacks))
	}

	if _, _, _, err := ExpandCells(SweepRequest{Cells: []Cell{
		{Kind: KindAttack, Scenario: "no-such-scenario", L2: 11, Technique: "drowsy", Interval: 4096},
	}}); err == nil {
		t.Error("unknown attack scenario accepted")
	}
	if _, _, _, err := ExpandCells(SweepRequest{Cells: []Cell{
		{Kind: "quantum", Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
	}}); err == nil {
		t.Error("unknown cell kind accepted")
	}
}

// TestRequestHashBackwardCompat pins that all-energy requests hash
// exactly as they did before cell kinds existed (Kind/Scenario marshal
// away when empty), and that adding an attack cell changes the hash.
func TestRequestHashBackwardCompat(t *testing.T) {
	energy := []Cell{
		{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
		{Bench: "gcc", L2: 11, Technique: "none"},
	}
	h1, err := RequestHash(1_000_000, 300_000, energy)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-kinds hash of the same request, computed before Kind and
	// Scenario existed on the wire struct. If this moves, in-flight sweep
	// dedup and checkpoint file names silently fork across versions.
	const pinned = "225f62d89220850c2cf63ba9fb0b48265ddfba8721bb13c720222c9548d3e25f"
	if h1 != pinned {
		t.Fatalf("energy-only request hash moved: %s != pinned %s", h1, pinned)
	}
	withAttack := append(append([]Cell(nil), energy...),
		Cell{Kind: KindAttack, Scenario: "smoke", L2: 11, Technique: "drowsy", Interval: 4096})
	h2, err := RequestHash(1_000_000, 300_000, withAttack)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("attack cell did not change the request hash")
	}
}

// TestRetryAfterSeconds pins the rounding contract: sub-second windows
// must advertise at least one second, never zero (a zero Retry-After
// makes well-behaved clients hammer the daemon in a tight loop).
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{50 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + time.Nanosecond, 3},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestRequestHashMixedKindPinned pins a request that mixes both cell
// kinds, so attack-cell wire encoding and kind ordering cannot move
// without notice either.
func TestRequestHashMixedKindPinned(t *testing.T) {
	withAttack := []Cell{
		{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
		{Bench: "gcc", L2: 11, Technique: "none"},
		{Kind: KindAttack, Scenario: "smoke", L2: 11, Technique: "drowsy", Interval: 4096},
	}
	h, err := RequestHash(1_000_000, 300_000, withAttack)
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "29009dc2da3d7637be69bb84a0035559d8326cc6b23694d420bb794a9ac24db4"
	if h != pinned {
		t.Fatalf("mixed-kind request hash moved: %s != pinned %s", h, pinned)
	}
}

// TestContentAddressesInjective: integers above 2^53 do not fit a
// float64, so a canonical form that routes numbers through one maps 2^53
// and 2^53+1 to the same bytes. Every content address must still tell
// them apart: a shared hash would serve one cell's result for the other.
func TestContentAddressesInjective(t *testing.T) {
	const big = uint64(1) << 53
	distinct := func(what string, hash func(v uint64) (string, error)) {
		t.Helper()
		a, err := hash(big)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hash(big + 1)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s: 2^53 and 2^53+1 share the address %s", what, a)
		}
	}
	mc := sim.DefaultMachine(11)
	distinct("CellHash interval", func(v uint64) (string, error) {
		return sim.CellHash(mc, "gzip", leakctl.TechDrowsy, v)
	})
	sc, _ := attack.ByName("smoke")
	distinct("AttackHash interval", func(v uint64) (string, error) {
		return sim.AttackHash(mc, sc, leakctl.TechDrowsy, v)
	})
	distinct("RequestHash interval", func(v uint64) (string, error) {
		return RequestHash(1_000_000, 300_000, []Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: v}})
	})
	distinct("RequestHash budget", func(v uint64) (string, error) {
		return RequestHash(v, 300_000, []Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}})
	})
}
