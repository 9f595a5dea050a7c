package sim

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hotleakage/internal/adaptive"
	"hotleakage/internal/decay"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// The golden-fingerprint suite pins the simulator's observable output —
// every CPU/cache/predictor counter and every energy meter — to fixtures
// recorded from the pre-optimization, strictly cycle-by-cycle core. Any
// timing-core change (the event-driven fast-forward in particular) must
// reproduce these bytes exactly: a wrong fast-forward would silently
// corrupt the paper's drowsy-vs-gated crossover long before any tier-1
// test noticed. Regenerate with:
//
//	go test ./internal/sim -run TestGoldenFingerprints -update-golden
//
// but only after independently establishing that a divergence is an
// intended model change, not a fast-forward bug.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden fingerprint fixtures")

const (
	goldenWarmup = 50_000
	goldenInstr  = 150_000
)

// goldenCase is one (machine, workload, control) cell of the fixture matrix.
// The matrix deliberately crosses the paths the fast-forward interacts
// with: all four techniques, both decay policies, per-line adaptive
// selectors, the feedback adapter (nextAdapt scheduling), controlled
// I-cache (a second decay machine on the fetch path), short and long L2
// latencies, and a decay interval small enough that rollovers land inside
// would-be idle regions.
type goldenCase struct {
	name  string
	bench string
	l2Lat int
	setup func() (Params leakctl.Params, mutate func(*MachineConfig), adapter leakctl.Adapter)
}

func goldenCases() []goldenCase {
	plain := func(t leakctl.Technique, interval uint64) func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
		return func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
			return leakctl.DefaultParams(t, interval), nil, nil
		}
	}
	return []goldenCase{
		{"baseline_gzip_l2-11", "gzip", 11, plain(leakctl.TechNone, 0)},
		{"drowsy_gcc_l2-11", "gcc", 11, plain(leakctl.TechDrowsy, DefaultInterval)},
		{"gated_gzip_l2-11", "gzip", 11, plain(leakctl.TechGated, DefaultInterval)},
		{"rbb_twolf_l2-11", "twolf", 11, plain(leakctl.TechRBB, DefaultInterval)},
		{"gated_gcc_l2-5", "gcc", 5, plain(leakctl.TechGated, DefaultInterval)},
		{"drowsy_gzip_l2-17", "gzip", 17, plain(leakctl.TechDrowsy, DefaultInterval)},
		// Short interval: global-counter rollovers every 128 cycles, so
		// fast-forward regions routinely contain rollovers.
		{"gated_crafty_iv512", "crafty", 11, plain(leakctl.TechGated, 512)},
		{"drowsy_simple_gzip", "gzip", 11, func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
			p := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
			p.Policy = decay.PolicySimple
			return p, nil, nil
		}},
		{"gated_perline_gcc", "gcc", 11, func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
			p := leakctl.DefaultParams(leakctl.TechGated, DefaultInterval)
			p.PerLineAdaptive = true
			return p, nil, nil
		}},
		{"gated_feedback_twolf", "twolf", 11, func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
			return leakctl.DefaultParams(leakctl.TechGated, DefaultInterval), nil, adaptive.NewFeedback(DefaultInterval, 8)
		}},
		{"il1_drowsy_gzip", "gzip", 11, func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
			ip := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
			return leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval),
				func(mc *MachineConfig) { mc.IL1Control = &ip }, nil
		}},
		{"tags-awake_drowsy_gcc", "gcc", 11, func() (leakctl.Params, func(*MachineConfig), leakctl.Adapter) {
			p := leakctl.DefaultParams(leakctl.TechDrowsy, DefaultInterval)
			p.DecayTags = false
			p.WakeLatency = 1
			return p, nil, nil
		}},
		// The other seven benchmarks, across all four techniques and all
		// four L2 latencies, so every profile's stream has a fixture.
		{"baseline_mcf_l2-8", "mcf", 8, plain(leakctl.TechNone, 0)},
		{"drowsy_parser_l2-5", "parser", 5, plain(leakctl.TechDrowsy, DefaultInterval)},
		{"gated_vortex_l2-17", "vortex", 17, plain(leakctl.TechGated, DefaultInterval)},
		{"rbb_gap_l2-8", "gap", 8, plain(leakctl.TechRBB, DefaultInterval)},
		{"drowsy_perl_l2-11", "perl", 11, plain(leakctl.TechDrowsy, 16384)},
		{"gated_bzip2_l2-5", "bzip2", 5, plain(leakctl.TechGated, 1024)},
		{"rbb_vpr_l2-17", "vpr", 17, plain(leakctl.TechRBB, DefaultInterval)},
	}
}

func goldenRun(t *testing.T, gc goldenCase) RunResult {
	t.Helper()
	mc := DefaultMachine(gc.l2Lat)
	mc.Warmup = goldenWarmup
	mc.Instructions = goldenInstr
	params, mutate, adapter := gc.setup()
	if mutate != nil {
		mutate(&mc)
	}
	prof, ok := workload.ByName(gc.bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", gc.bench)
	}
	res, err := RunOne(context.Background(), mc, prof, params, adapter)
	if err != nil {
		t.Fatalf("RunOne(%s): %v", gc.name, err)
	}
	return res
}

// fingerprint renders a RunResult as deterministic text, one counter per
// line. Floats are formatted as exact hexadecimal float64 literals, so the
// comparison is bit-identity, not approximate equality; reflection walks
// the structs so a newly added counter cannot silently escape the net.
func fingerprint(r RunResult) string {
	var b strings.Builder
	writeValue(&b, "", reflect.ValueOf(r))
	return b.String()
}

func writeValue(b *strings.Builder, prefix string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported
			}
			name := t.Field(i).Name
			if prefix != "" {
				name = prefix + "." + name
			}
			writeValue(b, name, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", prefix)
			return
		}
		writeValue(b, prefix, v.Elem())
	case reflect.Float64, reflect.Float32:
		fmt.Fprintf(b, "%s=%s\n", prefix, strconv.FormatFloat(v.Float(), 'x', -1, 64))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", prefix, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", prefix, v.Int())
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", prefix, v.Bool())
	case reflect.String:
		fmt.Fprintf(b, "%s=%q\n", prefix, v.String())
	default:
		panic(fmt.Sprintf("fingerprint: unhandled kind %s at %s", v.Kind(), prefix))
	}
}

func TestGoldenFingerprints(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			got := fingerprint(goldenRun(t, gc))
			path := filepath.Join("testdata", "golden", gc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture %s (generate with -update-golden against a trusted core): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("fingerprint diverged from %s:\n%s", path, diffLines(string(want), got))
			}
		})
	}
}

// diffLines reports the first few differing counter lines, which names the
// corrupted statistic directly instead of dumping both fingerprints.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "  want %s\n  got  %s\n", w, g)
		if n++; n >= 8 {
			b.WriteString("  ... (further divergences elided)\n")
			break
		}
	}
	return b.String()
}
