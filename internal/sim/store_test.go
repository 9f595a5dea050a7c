package sim

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// storeExperiments builds a small store-backed experiment set.
func storeExperiments(t *testing.T, st *store.Store) *Experiments {
	t.Helper()
	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 20_000
	e.Profiles = workload.Profiles()[:2]
	e.Workers = 1
	e.Store = st
	return e
}

// TestExperimentsStoreAcrossProcesses is the cross-process generalization
// of the sweep cache: a second experiment set over the same store serves
// every cell from disk with zero simulation, bit-identically; an
// overlapping set simulates only the delta.
func TestExperimentsStoreAcrossProcesses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cells := []CellSpec{
		{Bench: "gzip", L2: 11, Technique: leakctl.TechNone, Interval: 0},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechGated, Interval: 4096},
	}

	e1 := storeExperiments(t, st)
	cold, err := e1.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range cold {
		if o.Err != nil {
			t.Fatalf("cold cell %s failed: %v", o.Key, o.Err)
		}
		if o.Hash == "" {
			t.Fatalf("cold cell %s has no content address", o.Key)
		}
	}
	if e1.Executed() != len(cells) || e1.StoreHits() != 0 {
		t.Fatalf("cold run: executed=%d storeHits=%d, want %d/0",
			e1.Executed(), e1.StoreHits(), len(cells))
	}
	if err := e1.Err(); err != nil {
		t.Fatalf("cold run store error: %v", err)
	}
	e1.Close()
	st.Close()

	// "Restart the daemon": fresh store handle, fresh experiment set.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := storeExperiments(t, st2)
	warm, err := e2.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Executed() != 0 || e2.StoreHits() != len(cells) {
		t.Fatalf("warm run: executed=%d storeHits=%d, want 0/%d",
			e2.Executed(), e2.StoreHits(), len(cells))
	}
	for i := range cells {
		if warm[i].Hash != cold[i].Hash {
			t.Errorf("cell %s changed address across runs: %s vs %s",
				cells[i].Key(), cold[i].Hash, warm[i].Hash)
		}
		if !reflect.DeepEqual(warm[i].Result, cold[i].Result) {
			t.Errorf("cell %s not bit-identical across the store round-trip", cells[i].Key())
		}
	}
	e2.Close()

	// Overlapping sweep: one new cell simulates, the rest hit the store.
	e3 := storeExperiments(t, st2)
	overlap := append(append([]CellSpec(nil), cells...),
		CellSpec{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 8192})
	outs, err := e3.RunCells(overlap)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("overlap cell %s failed: %v", o.Key, o.Err)
		}
	}
	if e3.Executed() != 1 || e3.StoreHits() != len(cells) {
		t.Errorf("overlap run: executed=%d storeHits=%d, want 1/%d",
			e3.Executed(), e3.StoreHits(), len(cells))
	}
	e3.Close()
}

// TestCellHashSensitivity: the content address must move when anything
// that defines the cell moves — and must not depend on the budget-free
// parts of two identical configurations being the same allocation.
func TestCellHashSensitivity(t *testing.T) {
	mc := DefaultMachine(11)
	mc.Instructions = 60_000
	mc.Warmup = 20_000
	base, err := CellHash(mc, "gzip", leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	same, err := CellHash(mc, "gzip", leakctl.TechDrowsy, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("identical cells hash differently")
	}
	mc2 := DefaultMachine(11)
	mc2.Instructions = 60_000
	mc2.Warmup = 20_000
	if h, _ := CellHash(mc2, "gzip", leakctl.TechDrowsy, 4096); h != base {
		t.Error("separately built identical machine hashes differently")
	}

	for name, variant := range map[string]func() (string, error){
		"bench":     func() (string, error) { return CellHash(mc, "gcc", leakctl.TechDrowsy, 4096) },
		"technique": func() (string, error) { return CellHash(mc, "gzip", leakctl.TechGated, 4096) },
		"interval":  func() (string, error) { return CellHash(mc, "gzip", leakctl.TechDrowsy, 8192) },
		"l2": func() (string, error) {
			m := DefaultMachine(17)
			m.Instructions, m.Warmup = 60_000, 20_000
			return CellHash(m, "gzip", leakctl.TechDrowsy, 4096)
		},
		"budget": func() (string, error) {
			m := mc
			m.Instructions = 120_000
			return CellHash(m, "gzip", leakctl.TechDrowsy, 4096)
		},
	} {
		h, err := variant()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == base {
			t.Errorf("changing %s did not change the cell hash", name)
		}
	}
}

// eventCheck records each trace event with whether its cell was already
// in the store when the event arrived.
type eventCheck struct {
	st     *store.Store
	hashes map[string]string // run key -> content address
	mu     sync.Mutex
	seen   []checkedEvent
}

type checkedEvent struct {
	typ, key string
	stored   bool
}

func (c *eventCheck) Write(rec obs.Record) {
	stored := c.st.Has(c.hashes[rec.RunID])
	c.mu.Lock()
	c.seen = append(c.seen, checkedEvent{rec.Type, rec.RunID, stored})
	c.mu.Unlock()
}

// TestRunDoneFollowsStoreWrite pins one durable record per cell: with one
// worker, two lockstep groups run one after the other, largest first;
// every cell is in the store by the time its run_done event arrives, and
// the first group's cells are done before the second group starts — a
// kill between the groups loses only the second.
func TestRunDoneFollowsStoreWrite(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := storeExperiments(t, st)
	e.Workers = 1
	// The narrower group is planned first; the wider one must run first.
	cells := []CellSpec{
		{Bench: "gcc", L2: 11, Technique: leakctl.TechNone},
		{Bench: "gcc", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechNone},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechDrowsy, Interval: 4096},
		{Bench: "gzip", L2: 11, Technique: leakctl.TechGated, Interval: 4096},
	}
	check := &eventCheck{st: st, hashes: map[string]string{}}
	for _, cs := range cells {
		h, err := CellHash(e.suite(cs.L2).MC, cs.Bench, cs.Technique, cs.Interval)
		if err != nil {
			t.Fatal(err)
		}
		check.hashes[cs.Key()] = h
	}
	e.Events = check
	outs, err := e.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %s failed: %v", o.Key, o.Err)
		}
	}
	bench := func(key string) string { return strings.SplitN(key, "/", 2)[0] }
	var order []string
	done := map[string]int{}
	for _, ev := range check.seen {
		switch ev.typ {
		case "run_done":
			if !ev.stored {
				t.Errorf("run_done for %s arrived before its store write", ev.key)
			}
			done[bench(ev.key)]++
		case "run_start":
			if len(order) == 0 || order[len(order)-1] != bench(ev.key) {
				order = append(order, bench(ev.key))
			}
			if len(order) == 2 && done[order[0]] != 3 {
				t.Fatalf("group %s started with %d of group %s's 3 cells done; events %v",
					order[1], done[order[0]], order[0], check.seen)
			}
		}
	}
	if len(order) != 2 || order[0] != "gzip" {
		t.Fatalf("groups started in order %v, want the wider gzip group first, then gcc", order)
	}
	if e.Executed() != len(cells) || done["gzip"]+done["gcc"] != len(cells) {
		t.Fatalf("executed=%d, run_done for %v, want %d each", e.Executed(), done, len(cells))
	}
}
