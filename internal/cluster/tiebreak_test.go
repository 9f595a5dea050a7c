package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"testing"
)

// The dispatcher breaks load ties by a rendezvous order where it once
// walked a consistent-hash ring. The tests below keep the ring's names for
// the placement properties the order still owes, checked on an idle
// dispatcher where every booking is a tie: one first choice per key
// whatever the order of Config.Workers, an even spread over the workers, a
// death that moves only the dead worker's keys, and no owner once every
// worker is out.

var tieWorkers = []string{"http://w0:7070", "http://w1:7070", "http://w2:7070", "http://w3:7070"}

// tieKeys returns n deterministic hex SHA-256 strings, the shape of the
// store's cell content addresses, the first swapped for the key of a group
// whose cells have no hash.
func tieKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	keys[0] = "gzip/11"
	return keys
}

// idleDispatcher builds a dispatcher over workers with no sweep in flight.
func idleDispatcher(t *testing.T, workers []string) *Dispatcher {
	t.Helper()
	d, err := NewDispatcher(Config{Workers: workers, Store: openStore(t, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// book places a one-cell group per key on d, with every worker named in
// dead marked dead in this sweep, and retires each booking, so d stays
// idle. A key that enqueueLocked refuses maps to "".
func book(d *Dispatcher, keys []string, dead ...string) []string {
	sc := &dispatchState{queues: make(map[string][]*shardGroup), dead: make(map[string]bool)}
	for _, addr := range dead {
		sc.dead[addr] = true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	got := make([]string, len(keys))
	for i, key := range keys {
		g := &shardGroup{idxs: []int{0}, key: key}
		if addr, ok := d.enqueueLocked(sc, g); ok {
			d.retireLocked(sc, addr, g)
			got[i] = addr
		}
	}
	return got
}

// firstChoice is the worker an idle dispatcher with every worker live books
// key on: the one with the highest weight(key, addr).
func firstChoice(d *Dispatcher, key string) string {
	best := ""
	for _, addr := range d.cfg.Workers {
		if best == "" || weight(key, addr) > weight(key, best) {
			best = addr
		}
	}
	return best
}

// TestRingDeterministicAssignment: each key is booked on its first choice,
// the order of Config.Workers does not change it, and with a worker dead
// every order agrees on where that worker's keys go instead.
func TestRingDeterministicAssignment(t *testing.T) {
	keys := tieKeys(2048)
	d := idleDispatcher(t, tieWorkers)
	first := book(d, keys)
	for i, key := range keys {
		if first[i] != firstChoice(d, key) {
			t.Fatalf("key %s booked on %q, want its first choice %s", key, first[i], firstChoice(d, key))
		}
	}

	reversed := slices.Clone(tieWorkers)
	slices.Reverse(reversed)
	shuffled := []string{tieWorkers[2], tieWorkers[0], tieWorkers[3], tieWorkers[1]}
	for _, order := range [][]string{reversed, shuffled} {
		other := idleDispatcher(t, order)
		for i, addr := range book(other, keys) {
			if addr != first[i] {
				t.Fatalf("key %s: first choice %s with workers %v, %s in order", keys[i], addr, order, first[i])
			}
		}
		for _, gone := range tieWorkers {
			want := book(d, keys, gone)
			for i, addr := range book(other, keys, gone) {
				if addr != want[i] {
					t.Fatalf("key %s with %s dead: booked on %s with workers %v, %s in order", keys[i], gone, addr, order, want[i])
				}
			}
		}
	}
	requireIdle(t, d)
}

// TestRingBalance: every worker is the first choice of some keys, and no
// worker of more than twice as many as any other.
func TestRingBalance(t *testing.T) {
	keys := tieKeys(10_000)
	d := idleDispatcher(t, tieWorkers)
	share := make(map[string]int)
	for _, addr := range book(d, keys) {
		share[addr]++
	}
	lo, hi := len(keys), 0
	for _, addr := range tieWorkers {
		n := share[addr]
		if n == 0 {
			t.Fatalf("%s is the first choice of no key: %v", addr, share)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if float64(hi)/float64(lo) >= 2 {
		t.Errorf("imbalanced first choices: max/min = %d/%d = %.2f, want < 2: %v", hi, lo, float64(hi)/float64(lo), share)
	}
	requireIdle(t, d)
}

// TestRingMinimalReshuffleOnLeave: a death strands only the dead worker's
// keys; every other key keeps its worker. This is the re-shard guarantee
// the dispatcher leans on after a worker death.
func TestRingMinimalReshuffleOnLeave(t *testing.T) {
	keys := tieKeys(4096)
	d := idleDispatcher(t, tieWorkers)
	first := book(d, keys)
	for _, gone := range tieWorkers {
		for i, addr := range book(d, keys, gone) {
			switch {
			case addr == "":
				t.Fatalf("key %s not booked with only %s dead", keys[i], gone)
			case addr == gone:
				t.Fatalf("key %s booked on %s, which is dead", keys[i], gone)
			case first[i] != gone && addr != first[i]:
				t.Fatalf("key %s moved from %s to %s when %s died", keys[i], first[i], addr, gone)
			}
		}
	}
	requireIdle(t, d)
}

// TestRingOwnerExcluding covers the edge cases: no workers, a worker
// named twice, every worker dead, and all but one dead.
func TestRingOwnerExcluding(t *testing.T) {
	if _, err := NewDispatcher(Config{Store: openStore(t, t.TempDir())}); err == nil {
		t.Error("a dispatcher with no workers was built")
	}
	dup := []string{tieWorkers[0], tieWorkers[1], tieWorkers[0]}
	if _, err := NewDispatcher(Config{Workers: dup, Store: openStore(t, t.TempDir())}); err == nil {
		t.Error("a dispatcher with a worker named twice was built")
	}

	keys := tieKeys(256)
	d := idleDispatcher(t, tieWorkers)
	for i, addr := range book(d, keys, tieWorkers...) {
		if addr != "" {
			t.Fatalf("key %s booked on %s with every worker dead", keys[i], addr)
		}
	}
	pair := idleDispatcher(t, tieWorkers[:2])
	for i, addr := range book(pair, keys, tieWorkers[0]) {
		if addr != tieWorkers[1] {
			t.Fatalf("key %s booked on %q with only %s live", keys[i], addr, tieWorkers[1])
		}
	}
	requireIdle(t, d)
	requireIdle(t, pair)
}
