// Command tracegen inspects the synthetic SPECint-2000 workload generators:
// it generates a stream for one benchmark (or all) and reports instruction
// mix, dependence structure, branch composition, reuse-gap statistics and —
// when -machine is set — the stream's behaviour on the Table 2 machine
// (IPC, cache miss rates, branch misprediction). Use it to check a profile
// against its calibration targets or to characterize a custom profile.
//
// With -json, the same summaries are emitted as JSON lines (one object per
// benchmark) for scripted consumption; see StreamSummary for the schema.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/sim"
	"hotleakage/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark name (default: all)")
		n       = flag.Uint64("n", 500_000, "instructions to generate / simulate")
		machine = flag.Bool("machine", false, "also run the Table 2 machine over the stream")
		asJSON  = flag.Bool("json", false, "emit one JSON object per benchmark instead of text")
	)
	flag.Parse()

	profs := workload.Profiles()
	if *bench != "" {
		p, ok := workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; have %v\n", *bench, workload.Names())
			os.Exit(2)
		}
		profs = []workload.Profile{p}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, p := range profs {
		s := summarize(p, *n)
		if *machine {
			m, err := machineSummary(p, *n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			s.Machine = &m
		}
		if *asJSON {
			if err := enc.Encode(s); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		s.printText(os.Stdout)
	}
}

// StreamSummary is one benchmark's generated-stream characterization, and
// the schema of a -json output line.
type StreamSummary struct {
	Bench        string `json:"bench"`
	Instructions uint64 `json:"instructions"`
	// Fractions of the instruction stream.
	MemFrac   float64 `json:"mem_frac"`
	StoreFrac float64 `json:"store_frac"`
	CTIFrac   float64 `json:"cti_frac"`
	// TakenFrac is the taken fraction of control transfers.
	TakenFrac float64 `json:"taken_frac"`
	// MeanDep is the mean producer distance of register sources.
	MeanDep float64 `json:"mean_dep"`
	// Lines is the number of distinct 64B lines touched.
	Lines int `json:"lines"`
	// ReuseGap is the reuse-gap histogram over memory accesses, as
	// fractions in the buckets <256, <1k, <4k, <16k, <64k, >=64k.
	ReuseGap [6]float64 `json:"reuse_gap"`

	Machine *MachineSummary `json:"machine,omitempty"`
}

// MachineSummary is the stream's behaviour on the Table 2 machine.
type MachineSummary struct {
	IPC         float64 `json:"ipc"`
	DL1MissRate float64 `json:"dl1_miss_rate"`
	IL1MissRate float64 `json:"il1_miss_rate"`
	L2MissRate  float64 `json:"l2_miss_rate"`
	BpredMiss   float64 `json:"bpred_miss_rate"`
}

// summarize runs the generator for n instructions and characterizes the
// stream.
func summarize(p workload.Profile, n uint64) StreamSummary {
	g := workload.NewGenerator(p)
	var ins workload.Instr
	var mem, store, cti, taken uint64
	var depSum, depCnt uint64
	lastTouch := map[uint64]uint64{}
	gapHist := [6]uint64{} // <256, <1k, <4k, <16k, <64k, >=64k accesses
	var accesses uint64

	for i := uint64(0); i < n; i++ {
		g.Next(&ins)
		if ins.Op.IsMem() {
			mem++
			if ins.Op == workload.OpStore {
				store++
			}
			line := ins.Addr / 64
			if prev, ok := lastTouch[line]; ok {
				gap := accesses - prev
				switch {
				case gap < 256:
					gapHist[0]++
				case gap < 1024:
					gapHist[1]++
				case gap < 4096:
					gapHist[2]++
				case gap < 16384:
					gapHist[3]++
				case gap < 65536:
					gapHist[4]++
				default:
					gapHist[5]++
				}
			}
			lastTouch[line] = accesses
			accesses++
		}
		if ins.Op.IsCTI() {
			cti++
			if ins.Taken {
				taken++
			}
		}
		if ins.Src1 > 0 {
			depSum += uint64(ins.Src1)
			depCnt++
		}
	}
	s := StreamSummary{
		Bench:        p.Name,
		Instructions: n,
		MemFrac:      f(mem, n),
		StoreFrac:    f(store, n),
		CTIFrac:      f(cti, n),
		TakenFrac:    f(taken, cti),
		MeanDep:      float64(depSum) / float64(max(depCnt, 1)),
		Lines:        len(lastTouch),
	}
	for i, g := range gapHist {
		s.ReuseGap[i] = f(g, accesses)
	}
	return s
}

// machineSummary runs the Table 2 machine over the stream.
func machineSummary(p workload.Profile, n uint64) (MachineSummary, error) {
	mc := sim.DefaultMachine(11)
	mc.Warmup = n / 3
	mc.Instructions = n
	r, err := sim.RunOne(context.Background(), mc, p, leakctl.DefaultParams(leakctl.TechNone, 0), nil)
	if err != nil {
		return MachineSummary{}, err
	}
	return MachineSummary{
		IPC:         r.CPU.IPC(),
		DL1MissRate: f(r.DStats.Misses, max(r.DStats.Accesses, 1)),
		IL1MissRate: r.ICStats.MissRate(),
		L2MissRate:  r.L2Stats.MissRate(),
		BpredMiss:   r.Bpred.MispredictRate(),
	}, nil
}

func (s StreamSummary) printText(w io.Writer) {
	fmt.Fprintf(w, "%-8s mem=%.3f store=%.3f cti=%.3f taken=%.2f meandep=%.1f lines=%d\n",
		s.Bench, s.MemFrac, s.StoreFrac, s.CTIFrac, s.TakenFrac, s.MeanDep, s.Lines)
	fmt.Fprintf(w, "         reuse-gap histogram (accesses): <256:%.3f <1k:%.3f <4k:%.3f <16k:%.3f <64k:%.3f >=64k:%.3f\n",
		s.ReuseGap[0], s.ReuseGap[1], s.ReuseGap[2], s.ReuseGap[3], s.ReuseGap[4], s.ReuseGap[5])
	if m := s.Machine; m != nil {
		fmt.Fprintf(w, "         IPC=%.2f dl1miss=%.2f%% il1miss=%.2f%% l2miss=%.2f%% bpred=%.2f%%\n",
			m.IPC, 100*m.DL1MissRate, 100*m.IL1MissRate, 100*m.L2MissRate, 100*m.BpredMiss)
	}
}

func f(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
