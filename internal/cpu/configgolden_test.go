package cpu

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// The core-config fingerprint suite pins the timing core's results on core
// configurations the simulator's goldens never run. Those all run the
// Table 2 core: a 128-slot ring, ScanLimit 32, 8 MSHRs, 4-wide stages. Here
// a fixed-seed draw covers one-word rings, scan limits that cut the
// scheduler off, unlimited MSHRs, narrow and uneven pipelines and small FU
// pools, each against a fixture recorded from a trusted core. Fast-vs-
// strict identity cannot stand in for these: both of its sides run the
// same scheduler. Regenerate with:
//
//	go test ./internal/cpu -run TestCoreConfigFingerprints -update-golden
//
// but only after establishing that a divergence is an intended model
// change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the core-config fingerprint fixtures")

const (
	configCases  = 24
	configSeed   = 0x5eed
	configWarmup = 5_000
	configInstr  = 20_000
)

// configProfiles are the streams the cases draw from; vpr emits FP ops, so
// the FP pools are exercised.
var configProfiles = []string{"gcc", "mcf", "vpr"}

// configCase is one drawn (core config, profile, D-cache control) cell.
type configCase struct {
	cfg    Config
	prof   string
	params leakctl.Params
}

// splitmix is a fixed 64-bit generator, so the draw cannot move with a
// library's sequence.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// in draws uniformly from [lo, hi].
func (s *splitmix) in(lo, hi int) int { return lo + int(s.next()%uint64(hi-lo+1)) }

func drawConfigCases(t *testing.T) []configCase {
	t.Helper()
	rng := splitmix(configSeed)
	intervals := []uint64{64, 512, 4096}
	cases := make([]configCase, configCases)
	for i := range cases {
		cfg := DefaultConfig()
		cfg.RUUSize = rng.in(4, 80)
		cfg.LSQSize = rng.in(2, 40)
		cfg.FetchWidth = rng.in(1, 4)
		cfg.DecodeWidth = rng.in(1, 4)
		cfg.IssueWidth = rng.in(1, 4)
		cfg.CommitWidth = rng.in(1, 4)
		cfg.ScanLimit = rng.in(1, 64)
		cfg.MSHRs = rng.in(0, 8)
		cfg.IntALUs = rng.in(1, 4)
		cfg.IntMulDivs = rng.in(1, 4)
		cfg.FPALUs = rng.in(1, 4)
		cfg.FPMulDivs = rng.in(1, 4)
		cfg.MemPorts = rng.in(1, 4)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("case %d: drawn config rejected: %v", i, err)
		}
		tech := []leakctl.Technique{leakctl.TechNone, leakctl.TechDrowsy, leakctl.TechGated}[rng.in(0, 2)]
		iv := intervals[rng.in(0, len(intervals)-1)]
		cases[i] = configCase{
			cfg:    cfg,
			prof:   configProfiles[rng.in(0, len(configProfiles)-1)],
			params: leakctl.DefaultParams(tech, iv),
		}
	}
	return cases
}

// TestCoreConfigDrawCovers guards the draw itself: the fixtures are only
// worth their bytes if they reach what the Table 2 core never does.
func TestCoreConfigDrawCovers(t *testing.T) {
	var oneWord, multiWord, scanCut, noMSHR, narrowCommit, wideCommit bool
	techs := map[leakctl.Technique]bool{}
	profs := map[string]bool{}
	for _, cc := range drawConfigCases(t) {
		ring := buildRing(cc.cfg)
		oneWord = oneWord || ring <= 64
		multiWord = multiWord || ring > 64
		scanCut = scanCut || cc.cfg.ScanLimit < cc.cfg.RUUSize/2
		noMSHR = noMSHR || cc.cfg.MSHRs == 0
		narrowCommit = narrowCommit || cc.cfg.CommitWidth < 4
		wideCommit = wideCommit || cc.cfg.CommitWidth == 4
		techs[cc.params.Technique] = true
		profs[cc.prof] = true
	}
	for what, ok := range map[string]bool{
		"a ring of one bitmap word":  oneWord,
		"a ring of several words":    multiWord,
		"a scan limit that cuts off": scanCut,
		"unlimited MSHRs":            noMSHR,
		"a commit width below 4":     narrowCommit,
		"a commit width of 4":        wideCommit,
		"every technique":            len(techs) == 3,
		"every profile":              len(profs) == len(configProfiles),
	} {
		if !ok {
			t.Errorf("the draw covers no case with %s", what)
		}
	}
}

// buildRing is the ring length build sizes for cfg.
func buildRing(cfg Config) int {
	c := New(cfg, nil, nil, nil, nil)
	return len(c.done)
}

// configFingerprint runs one case and renders its core Stats, predictor
// stats, D-cache Stats, Energy and standby line-cycles and the final cycle,
// one value per line, floats as exact hexadecimal literals. The case's
// own parameters head the text, so a changed draw shows in the diff.
func configFingerprint(t *testing.T, cc configCase) string {
	t.Helper()
	prof, ok := workload.ByName(cc.prof)
	if !ok {
		t.Fatalf("unknown profile %q", cc.prof)
	}
	c := buildWith(prof, cc.cfg, cc.params, nil)
	c.Run(configWarmup)
	c.ResetStats()
	c.DCache.ResetStats(c.Now())
	c.Run(configInstr)
	c.DCache.Finish(c.Now())

	var b strings.Builder
	fmt.Fprintf(&b, "Profile=%s\nTechnique=%s\nInterval=%d\n", cc.prof, cc.params.Technique, cc.params.Interval)
	writeFields(&b, "Config", cc.cfg)
	writeFields(&b, "Stats", c.Stats)
	writeFields(&b, "BP", c.BP)
	writeFields(&b, "DCache.Stats", c.DCache.Stats)
	writeFields(&b, "DCache.Energy", c.DCache.Energy)
	fmt.Fprintf(&b, "DCache.StandbyLineCycles=%d\nCycle=%d\n", c.DCache.StandbyLineCycles(), c.Now())
	return b.String()
}

// writeFields renders a flat struct of integers and floats.
func writeFields(b *strings.Builder, prefix string, v any) {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rv.Field(i)
		name := prefix + "." + rt.Field(i).Name
		switch f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(b, "%s=%s\n", name, strconv.FormatFloat(f.Float(), 'x', -1, 64))
		case reflect.Int:
			fmt.Fprintf(b, "%s=%d\n", name, f.Int())
		case reflect.Uint64:
			fmt.Fprintf(b, "%s=%d\n", name, f.Uint())
		default:
			panic(fmt.Sprintf("writeFields: unhandled kind %s at %s", f.Kind(), name))
		}
	}
}

func TestCoreConfigFingerprints(t *testing.T) {
	for i, cc := range drawConfigCases(t) {
		path := filepath.Join("testdata", "coreconfig", fmt.Sprintf("case%02d.golden", i))
		got := configFingerprint(t, cc)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture %s (generate with -update-golden against a trusted core): %v", path, err)
		}
		if got != string(want) {
			t.Errorf("case %d diverged from %s:\n%s", i, path, firstDiffs(string(want), got))
		}
	}
}

// firstDiffs reports the first few differing lines, which names the
// diverged statistic directly.
func firstDiffs(want, got string) string {
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
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}
