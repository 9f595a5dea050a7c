package faultinject

import (
	"reflect"
	"testing"
)

// FuzzParse checks the run-level grammar kind:1/N[:seed=S][:sticky]: Parse
// never panics, and an accepted spec's String re-parses to the same
// injector, so a rendered spec replays the same schedule. The seed corpus under testdata/fuzz/FuzzParse holds the specs
// of the package's test tables.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, whose String %q does not parse: %v", spec, *d, d.String(), err)
		}
		if *again != *d {
			t.Fatalf("Parse(%q) = %+v, but its String %q parses to %+v", spec, *d, d.String(), *again)
		}
	})
}

// planeSchedule is what a plane decides for the first operations at each
// of its sites: the schedule a spec stands for. Delay only means something
// for slow faults, so it is dropped from the others.
func planeSchedule(p *Plane) map[string][]Decision {
	out := make(map[string][]Decision)
	for site := range p.rules {
		for i := 0; i < 32; i++ {
			d := p.Decide(site)
			if d.Fault != OpSlow {
				d.Delay = 0
			}
			out[site] = append(out[site], d)
		}
	}
	return out
}

// FuzzParsePlane checks the plane grammar, comma-separated
// site:kind:1/N[:seed=S][:delay=D] rules: ParsePlane never panics, and an
// accepted spec's String re-parses to a plane with the same rules that
// decides the same faults. The seed corpus under
// testdata/fuzz/FuzzParsePlane holds the specs of the package's test
// tables and the chaos smoke script's.
func FuzzParsePlane(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlane(spec)
		if err != nil {
			return
		}
		again, err := ParsePlane(p.String())
		if err != nil {
			t.Fatalf("ParsePlane(%q) renders %q, which does not parse: %v", spec, p.String(), err)
		}
		if len(again.rules) != len(p.rules) || again.String() != p.String() {
			t.Fatalf("ParsePlane(%q) renders %q, which parses to %q", spec, p.String(), again.String())
		}
		if !reflect.DeepEqual(planeSchedule(p), planeSchedule(again)) {
			t.Fatalf("ParsePlane(%q) and its rendering %q decide differently", spec, p.String())
		}
	})
}
