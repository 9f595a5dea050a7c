package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
)

// TestAttackSweep drives a mixed-kind sweep through the daemon: energy
// and attack cells in one request, both resolved and content-addressed,
// with a warm resubmit answered entirely from the store. It then checks
// the acceptance property the frontier depends on: an attack cell run
// through leakd is bit-identical to the same cell run locally.
func TestAttackSweep(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := api.SweepRequest{
		Instructions: testInstr,
		Warmup:       testWarmup,
		Cells: []api.Cell{
			{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096},
			{Kind: api.KindAttack, Scenario: "smoke", L2: 11, Technique: "drowsy", Interval: 2048},
			{Kind: api.KindAttack, Scenario: "smoke", L2: 11, Technique: "gated-vss", Interval: 2048},
		},
	}
	sub, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Total != 3 {
		t.Fatalf("submit total = %d, want 3", sub.Total)
	}
	cold, err := cl.WaitSweep(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != api.StateCompleted || cold.Failed != 0 || cold.Completed != 3 {
		t.Fatalf("cold sweep: state=%s completed=%d failed=%d (%s)",
			cold.State, cold.Completed, cold.Failed, cold.Error)
	}
	// Status rows carry both kinds, attack rows tagged and hashed.
	var attackRows int
	for _, cs := range cold.Cells {
		if cs.State != "done" || cs.Hash == "" {
			t.Fatalf("cell not done: %+v", cs)
		}
		if cs.Cell.Kind == api.KindAttack {
			attackRows++
			if cs.Cell.Scenario != "smoke" {
				t.Fatalf("attack row lost its scenario: %+v", cs.Cell)
			}
		}
	}
	if attackRows != 2 {
		t.Fatalf("status carried %d attack rows, want 2", attackRows)
	}

	// The stored attack result must be bit-identical to a local run of the
	// same cell (the acceptance property: leakbench -attack local vs
	// -remote report the same metric values).
	specs := []sim.AttackSpec{
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048},
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechGated, Interval: 2048},
	}
	e := sim.NewExperiments()
	e.Instructions = testInstr
	e.Warmup = testWarmup
	e.Workers = 1
	defer e.Close()
	local, err := e.RunAttackCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if local[i].Err != nil {
			t.Fatalf("local attack cell failed: %v", local[i].Err)
		}
		rec, err := cl.Cell(ctx, local[i].Hash)
		if err != nil {
			t.Fatalf("daemon does not serve attack cell %s: %v", local[i].Hash, err)
		}
		var remote attack.Result
		if err := json.Unmarshal(rec.Value, &remote); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(remote, local[i].Result) {
			t.Fatalf("cell %s: daemon result diverges from local run:\n %+v\n %+v",
				sp.Key(), remote, local[i].Result)
		}
	}

	// Warm resubmit: every cell (both kinds) served from the store.
	resub, err := cl.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.WaitSweep(ctx, resub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != api.StateCompleted || warm.Executed != 0 || warm.StoreHits != 3 {
		t.Fatalf("warm: state=%s executed=%d storeHits=%d, want completed/0/3",
			warm.State, warm.Executed, warm.StoreHits)
	}
}

// TestRemoteRunAttackCells exercises the attack half of the
// sim.RemoteRunner implementation: the client ships attack cells to the daemon and the
// reassembled results match a local run bit-for-bit, with unknown
// scenarios degrading to per-cell errors on the daemon side.
func TestRemoteRunAttackCells(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	cl := api.NewClient(hts.URL)
	cl.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	specs := []sim.AttackSpec{
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechNone, Interval: 0},
		{Scenario: "smoke", L2: 11, Technique: leakctl.TechDrowsy, Interval: 2048},
	}
	out, err := cl.RunAttackCells(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}

	e := sim.NewExperiments()
	e.Workers = 1
	defer e.Close()
	local, err := e.RunAttackCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if out[i].Err != "" {
			t.Fatalf("cell %d failed remotely: %s", i, out[i].Err)
		}
		if local[i].Err != nil {
			t.Fatalf("cell %d failed locally: %v", i, local[i].Err)
		}
		if !reflect.DeepEqual(out[i].Result, local[i].Result) {
			t.Fatalf("cell %d: remote diverges from local:\n %+v\n %+v",
				i, out[i].Result, local[i].Result)
		}
	}
}
