package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hotleakage/internal/bpred"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// TestFrontWindowMatchesFill pins the sliding window to the one-shot fill
// it replaces: a front filled a little at a time and advanced in steps
// must hold, at every resident position, the record one Fill of the whole
// length holds there, and leave its predictor in the same state. A core
// replaying the window, advanced between chunks the way the batch
// executor advances it, must end exactly where a core replaying the full
// front ends; and a core whose position has been dropped must panic with
// the window message the batch executor recovers.
func TestFrontWindowMatchesFill(t *testing.T) {
	const (
		chunk = 50_000
		slack = 4096
		n     = 4*chunk + slack
	)
	for _, name := range []string{"gcc", "mcf"} {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		var full Front
		fullPred := bpred.New(bpred.DefaultConfig())
		full.Fill(workload.NewGenerator(prof), fullPred, n)

		var win Front
		winPred := bpred.New(bpred.DefaultConfig())
		win.Fill(workload.NewGenerator(prof), winPred, 1_000)
		check := func(step string, lo, hi int) {
			t.Helper()
			if win.base != lo || win.base+len(win.recs) != hi {
				t.Fatalf("%s %s: window [%d, %d), want [%d, %d)", name, step, win.base, win.base+len(win.recs), lo, hi)
			}
			for i, r := range win.recs {
				if r != full.recs[win.base+i] {
					t.Fatalf("%s %s: record at %d differs from the one-shot fill", name, step, win.base+i)
				}
			}
		}
		check("fill", 0, 1_000)
		for _, s := range []struct {
			step           string
			lo, hi         int
			wantLo, wantHi int
		}{
			{"lo == base", 0, 30_000, 0, 30_000},
			{"hi below the end", 0, 20_000, 0, 30_000},
			{"lo past half the window", 20_000, 60_000, 20_000, 60_000},
			{"lo at the end", 60_000, 60_000, 60_000, 60_000},
			{"to the stream's end", 60_000, n, 60_000, n},
		} {
			win.Advance(s.lo, s.hi)
			check(s.step, s.wantLo, s.wantHi)
		}
		if !reflect.DeepEqual(fullPred, winPred) {
			t.Fatalf("%s: the window's predictor diverged from the one-shot fill's", name)
		}

		// Replay: one core over the full front, one over a window advanced
		// before every chunk to [position, position+chunk+slack).
		params := leakctl.DefaultParams(leakctl.TechDrowsy, 4096)
		ref := buildWith(prof, DefaultConfig(), params, nil)
		ref.AttachFront(&full)
		lane := buildWith(prof, DefaultConfig(), params, nil)
		win.Fill(workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()), chunk+slack)
		lane.AttachFront(&win)
		for round := 0; round < 4; round++ {
			pos := lane.FrontPos()
			win.Advance(pos, min(pos+chunk+slack, n))
			if got, want := lane.Run(chunk), ref.Run(chunk); got != want {
				t.Fatalf("%s round %d: stats diverged\nwindow %+v\nfull   %+v", name, round, got, want)
			}
		}
		if lane.BP != ref.BP || lane.Now() != ref.Now() {
			t.Fatalf("%s: BP %+v now %d, want BP %+v now %d", name, lane.BP, lane.Now(), ref.BP, ref.Now())
		}

		// Dropping the lane's next record must fail the lane, not replay a
		// wrong one.
		pos := lane.FrontPos()
		win.Advance(pos+1, n)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			lane.Run(1_000)
			return ""
		}()
		if want := fmt.Sprintf("front position %d outside window [%d, %d)", pos, pos+1, n); !strings.Contains(msg, want) {
			t.Fatalf("%s: lane below the window panicked with %q, want %q", name, msg, want)
		}
	}
}
