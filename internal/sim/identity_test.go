package sim

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// seededExperiments is a small figure set whose profile seeds are XORed
// with xor, the way a caller that edits Experiments.Profiles studies
// another draw of each benchmark.
func seededExperiments(xor uint64, st *store.Store) *Experiments {
	e := NewExperiments()
	e.Instructions = 40_000
	e.Warmup = 10_000
	e.Profiles = e.Profiles[:3]
	for i := range e.Profiles {
		e.Profiles[i].Seed ^= xor
	}
	e.Store = st
	return e
}

// TestEditedProfilesDoNotShareStoredCells is the aliasing probe: two
// figure sets over one store, the second with every profile seed XORed
// with 7. The second must simulate its own cells and return the figure a
// storeless run of the same profiles returns, not the first set's.
func TestEditedProfilesDoNotShareStoredCells(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	figure := func(e *Experiments) (Figure, Figure) {
		defer e.Close()
		return e.LatencyFigure("S", "P", 11, 110, DefaultInterval)
	}
	firstSav, _ := figure(seededExperiments(0, st))

	second := seededExperiments(7, st)
	sav, perf := figure(second)
	wantSav, wantPerf := figure(seededExperiments(7, nil))
	if second.StoreHits() != 0 || second.Executed() != 9 {
		t.Errorf("edited profiles: store_hits=%d executed=%d, want 0/9", second.StoreHits(), second.Executed())
	}
	if !reflect.DeepEqual(sav, wantSav) || !reflect.DeepEqual(perf, wantPerf) {
		t.Fatalf("edited profiles over a shared store returned another figure:\ngot  %v\nwant %v", sav, wantSav)
	}
	if reflect.DeepEqual(firstSav, wantSav) {
		t.Fatal("XORing the seeds did not change the figure; the probe proves nothing")
	}
}

// perturb changes one profile field to another valid value, copying
// rather than mutating anything the field shares with the registry.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "-edited")
	case reflect.Float64:
		if f := v.Float(); f != 0 {
			v.SetFloat(f / 2)
		} else {
			v.SetFloat(0.01)
		}
	case reflect.Int:
		if n := v.Int(); n != 0 {
			v.SetInt(2 * n)
		} else {
			v.SetInt(64)
		}
	case reflect.Uint64:
		v.SetUint(v.Uint() ^ 7)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("field %s: the base profile leaves it empty, so the guard cannot perturb it", name)
		}
		v.Set(v.Slice(0, v.Len()-1))
	default:
		t.Fatalf("field %s: no perturbation for kind %s; teach perturb one", name, v.Kind())
	}
}

// TestCellIdentityCoversProfile is the general guard behind the aliasing
// fix: every exported workload.Profile field, found by reflection so a
// field added later is covered too, is perturbed in turn, and whenever the
// perturbation changes what RunOne returns it must change the cell's
// content address too. The registered profile must keep the hash CellHash
// (and every recorded pin) gives it.
func TestCellIdentityCoversProfile(t *testing.T) {
	e := NewExperiments()
	e.Instructions = 20_000
	e.Warmup = 5_000
	k := energyKind{e}
	mc := e.suite(11).MC
	params := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
	run := func(p workload.Profile) (RunResult, string) {
		t.Helper()
		r, err := RunOne(context.Background(), mc, p, params, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		h, err := store.CanonicalHash(k.identity(runSpec{p, 11, params.Technique, params.Interval}))
		if err != nil {
			t.Fatal(err)
		}
		return r, h
	}
	base, _ := workload.ByName("mcf")
	r0, h0 := run(base)
	if pinned, err := CellHash(mc, base.Name, params.Technique, params.Interval); err != nil || h0 != pinned {
		t.Fatalf("registered profile hashes %s, CellHash gives %s (%v)", h0, pinned, err)
	}
	typ := reflect.TypeOf(base)
	moved := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		p := base
		perturb(t, f.Name, reflect.ValueOf(&p).Elem().Field(i))
		r, h := run(p)
		if reflect.DeepEqual(r, r0) {
			continue
		}
		moved++
		if h == h0 {
			t.Errorf("changing Profile.%s changes RunOne's result but not the cell hash", f.Name)
		}
	}
	if moved < typ.NumField()/2 {
		t.Fatalf("only %d of %d perturbations changed the result; the guard is not exercising the simulation", moved, typ.NumField())
	}
}

// leafFields calls visit with the index path and name of every exported
// leaf field reachable from typ through structs and pointers to structs.
func leafFields(typ reflect.Type, path []int, name string, visit func(path []int, name string)) {
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		p := append(append([]int(nil), path...), i)
		ft := f.Type
		for ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			leafFields(ft, p, name+"."+f.Name, visit)
			continue
		}
		visit(p, name+"."+f.Name)
	}
}

// fieldAt returns the field at path in v, allocating nil pointers on the
// way so an optional section (IL1Control) can be perturbed too.
func fieldAt(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return v
}

// TestCellIdentityCoversMachine extends the profile guard to the machine:
// every exported leaf field of MachineConfig, found by reflection, is
// perturbed in turn on a fresh machine (perturbations Validate rejects are
// skipped), and whenever CellHash stays put RunOne's result must stay put
// too. A field the identity dropped would fail here.
func TestCellIdentityCoversMachine(t *testing.T) {
	machine := func() MachineConfig {
		mc := DefaultMachine(11)
		mc.Instructions, mc.Warmup = 20_000, 5_000
		return mc
	}
	prof, _ := workload.ByName("mcf")
	params := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
	h0, err := CellHash(machine(), prof.Name, params.Technique, params.Interval)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := RunOne(context.Background(), machine(), prof, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves, valid := 0, 0
	leafFields(reflect.TypeOf(MachineConfig{}), nil, "MachineConfig", func(path []int, name string) {
		leaves++
		mc := machine()
		perturb(t, name, fieldAt(reflect.ValueOf(&mc).Elem(), path))
		if mc.Validate() != nil {
			return
		}
		valid++
		h, err := CellHash(mc, prof.Name, params.Technique, params.Interval)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h != h0 {
			return
		}
		if r, err := RunOne(context.Background(), mc, prof, params, nil); err != nil || !reflect.DeepEqual(r, r0) {
			t.Errorf("changing %s changes RunOne's result (err %v) but not the cell hash", name, err)
		}
	})
	t.Logf("%d of %d machine leaf perturbations validate", valid, leaves)
	if valid < leaves/2 {
		t.Fatalf("only %d of %d machine perturbations validate; the guard is not exercising the identity", valid, leaves)
	}
}

// TestAttackIdentityCoversScenario is the same guard for attack cells:
// every exported leaf field of attack.Scenario that AttackHash does not
// see must leave attack.Run's result alone.
func TestAttackIdentityCoversScenario(t *testing.T) {
	mc := DefaultMachine(11)
	base, ok := attack.ByName("smoke")
	if !ok {
		t.Fatal("smoke scenario missing")
	}
	params := leakctl.DefaultParams(leakctl.TechDrowsy, 2048)
	h0, err := AttackHash(mc, base, params.Technique, params.Interval)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := attack.Run(attackMachine(mc), base, params)
	if err != nil {
		t.Fatal(err)
	}
	leaves, valid := 0, 0
	leafFields(reflect.TypeOf(base), nil, "Scenario", func(path []int, name string) {
		leaves++
		sc := base
		perturb(t, name, fieldAt(reflect.ValueOf(&sc).Elem(), path))
		if sc.Validate() != nil {
			return
		}
		valid++
		h, err := AttackHash(mc, sc, params.Technique, params.Interval)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h != h0 {
			return
		}
		if r, err := attack.Run(attackMachine(mc), sc, params); err != nil || !reflect.DeepEqual(r, r0) {
			t.Errorf("changing %s changes attack.Run's result (err %v) but not the attack hash", name, err)
		}
	})
	t.Logf("%d of %d scenario leaf perturbations validate", valid, leaves)
	if valid < leaves/2 {
		t.Fatalf("only %d of %d scenario perturbations validate; the guard is not exercising the identity", valid, leaves)
	}
}

// recordingRunner is a RemoteRunner that simulates what it is sent with a
// second Experiments (standing in for a daemon) and records the benchmark
// names that crossed the wire.
type recordingRunner struct {
	inner *Experiments
	mu    sync.Mutex
	sent  []string
}

func (r *recordingRunner) RunCells(_ context.Context, _, _ uint64, specs []CellSpec) ([]RemoteCell, error) {
	r.mu.Lock()
	for _, cs := range specs {
		r.sent = append(r.sent, cs.Bench)
	}
	r.mu.Unlock()
	outs, err := r.inner.RunCells(specs)
	if err != nil {
		return nil, err
	}
	cells := make([]RemoteCell, len(outs))
	for i, o := range outs {
		cells[i] = RemoteCell{Spec: o.Spec, Result: o.Result}
		if o.Err != nil {
			cells[i].Err = o.Err.Error()
		}
	}
	return cells, nil
}

func (r *recordingRunner) RunAttackCells(context.Context, []AttackSpec) ([]RemoteOutcome[AttackSpec, attack.Result], error) {
	return nil, nil
}

// TestRemoteRefusesEditedProfile pins that a cell over an edited profile
// is never shipped by name, where the daemon would simulate the registered
// profile instead: it fails as an invalid configuration, while a cell over
// a registered profile still goes remote.
func TestRemoteRefusesEditedProfile(t *testing.T) {
	r := &recordingRunner{inner: seededExperiments(0, nil)}
	e := seededExperiments(0, nil)
	e.Profiles[0].Seed ^= 7
	e.Remote = r
	defer e.Close()
	if _, err := e.run(e.Profiles[0], 11, leakctl.TechDrowsy, DefaultInterval); err == nil || !strings.Contains(err.Error(), ErrInvalidConfig.Error()) {
		t.Fatalf("edited profile over Remote: err = %v, want %v", err, ErrInvalidConfig)
	}
	if _, err := e.run(e.Profiles[1], 11, leakctl.TechDrowsy, DefaultInterval); err != nil {
		t.Fatalf("registered profile over Remote: %v", err)
	}
	if want := []string{e.Profiles[1].Name}; !reflect.DeepEqual(r.sent, want) {
		t.Fatalf("shipped %v, want only %v", r.sent, want)
	}
}

// TestRunCellsUsesEditedProfiles pins that a cell named over RunCells runs
// the Experiments' own profile of that name, as its figures do: with the
// first profile's seed edited, RunCells ahead of the figure must return
// what RunOne returns on the edited profile under the edited profile's
// content address, and the figure that then reads it from the memo must
// equal a figure computed without RunCells. Over Remote the cell fails
// instead of shipping the registered profile's name.
func TestRunCellsUsesEditedProfiles(t *testing.T) {
	e := tinyExperiments()
	defer e.Close()
	e.Profiles[0].Seed ^= 7
	prof := e.Profiles[0]
	cs := CellSpec{Bench: prof.Name, L2: 11, Technique: leakctl.TechDrowsy, Interval: DefaultInterval}
	outs, err := e.RunCells([]CellSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Fatalf("RunCells: %v", outs[0].Err)
	}
	mc := e.suite(11).MC
	want, err := RunOne(context.Background(), mc, prof, leakctl.DefaultParams(cs.Technique, cs.Interval), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs[0].Result, want) {
		t.Fatal("RunCells simulated another stream than the edited profile")
	}
	hash, err := store.CanonicalHash(energyKind{e}.identity(runSpec{prof, 11, cs.Technique, cs.Interval}))
	if err != nil {
		t.Fatal(err)
	}
	registered, err := CellHash(mc, prof.Name, cs.Technique, cs.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Hash != hash || hash == registered {
		t.Fatalf("RunCells hash %s, want the edited profile's %s (registered: %s)", outs[0].Hash, hash, registered)
	}

	sav, perf := e.LatencyFigure("S", "P", 11, 110, DefaultInterval)
	ref := tinyExperiments()
	defer ref.Close()
	ref.Profiles[0].Seed ^= 7
	wantSav, wantPerf := ref.LatencyFigure("S", "P", 11, 110, DefaultInterval)
	if !reflect.DeepEqual(sav, wantSav) || !reflect.DeepEqual(perf, wantPerf) {
		t.Fatalf("figure after RunCells differs from one without it:\ngot  %v\nwant %v", sav, wantSav)
	}

	r := &recordingRunner{inner: tinyExperiments()}
	remote := tinyExperiments()
	defer remote.Close()
	remote.Profiles[0].Seed ^= 7
	remote.Remote = r
	outs, err = remote.RunCells([]CellSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), ErrInvalidConfig.Error()) || len(r.sent) != 0 {
		t.Fatalf("edited profile over Remote: err = %v, shipped %v; want %v and nothing shipped", outs[0].Err, r.sent, ErrInvalidConfig)
	}
}
