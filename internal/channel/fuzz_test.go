package channel

import (
	"math"
	"testing"
)

// FuzzMetrics checks the estimators against the standard bounds of
// quantitative information flow on arbitrary joint distributions. The
// input decodes as: the secret count (1-8), a mask of the secrets that may
// be sampled (the others keep no trials), the observation alphabet size
// (1-6), then (secret, symbol) pairs, one trial each; an input without
// pairs records one trial. With S secrets, O distinct symbols and a
// uniform prior:
//
//	0 <= capacity <= min-entropy leakage <= log2 min(S, O)
//	1 <= posterior guessing entropy <= prior guessing entropy
//
// Shannon capacity is at most the min-entropy capacity, which the uniform
// prior attains, and the Blahut-Arimoto estimate is a lower bound on the
// former. The seed corpus, under testdata/fuzz/FuzzMetrics, encodes the
// closed-form channels of channel_test.go.
func FuzzMetrics(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0]%8)
		var sampled []int
		for s := 0; s < n; s++ {
			if data[1]&(1<<s) != 0 {
				sampled = append(sampled, s)
			}
		}
		if len(sampled) == 0 {
			sampled = []int{0}
		}
		alphabet := 1 + data[2]%6
		j := NewJoint(n)
		pairs := data[3:]
		for i := 0; i+1 < len(pairs); i += 2 {
			j.Observe(sampled[int(pairs[i])%len(sampled)], string(rune('a'+pairs[i+1]%alphabet)))
		}
		if j.Trials() == 0 {
			j.Observe(sampled[0], "a")
		}

		const tol = 1e-9
		m := j.Metrics()
		ceiling := math.Log2(float64(min(n, j.Observations())))
		if m.CapacityBits < 0 || m.CapacityBits > m.MinEntropyLeakageBits+tol || m.MinEntropyLeakageBits > ceiling+tol {
			t.Fatalf("want 0 <= capacity %v <= min-entropy leakage %v <= log2 min(S, O) %v", m.CapacityBits, m.MinEntropyLeakageBits, ceiling)
		}
		if m.GuessingEntropyPosterior < 1-tol || m.GuessingEntropyPosterior > m.GuessingEntropyPrior+tol {
			t.Fatalf("want 1 <= posterior guessing entropy %v <= prior %v", m.GuessingEntropyPosterior, m.GuessingEntropyPrior)
		}
	})
}
