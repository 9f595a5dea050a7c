package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// testHashes returns n deterministic hex SHA-256 strings — the same shape
// as the store's cell content addresses.
func testHashes(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("cell-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestRingBalance: with enough virtual points, no node owns more than
// twice the share of any other over a large key population.
func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	nodes := []string{"w1", "w2", "w3", "w4", "w5"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[string]int)
	for _, h := range testHashes(10_000) {
		owner, ok := r.Owner(h)
		if !ok {
			t.Fatal("no owner on a populated ring")
		}
		counts[owner]++
	}
	min, max := 1<<31, 0
	for _, n := range nodes {
		c := counts[n]
		if c == 0 {
			t.Fatalf("node %s owns nothing: %v", n, counts)
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(min) >= 2.0 {
		t.Errorf("imbalanced ring: max/min = %d/%d = %.2f, want < 2: %v",
			max, min, float64(max)/float64(min), counts)
	}
}

// TestRingMinimalReshuffleOnJoin: adding a node moves roughly 1/N of the
// keys — all of them to the new node — and every unmoved key keeps its
// owner.
func TestRingMinimalReshuffleOnJoin(t *testing.T) {
	r := NewRing(128)
	for _, n := range []string{"w1", "w2", "w3", "w4"} {
		r.Add(n)
	}
	hashes := testHashes(10_000)
	before := make(map[string]string, len(hashes))
	for _, h := range hashes {
		before[h], _ = r.Owner(h)
	}
	r.Add("w5")
	moved := 0
	for _, h := range hashes {
		after, _ := r.Owner(h)
		if after == before[h] {
			continue
		}
		moved++
		if after != "w5" {
			t.Fatalf("key %s moved %s -> %s, not to the joining node", h[:12], before[h], after)
		}
	}
	// Ideal is 1/5 = 20%; allow generous slack but far below a full
	// reshuffle (a mod-N scheme would move ~80%).
	if frac := float64(moved) / float64(len(hashes)); frac > 0.35 {
		t.Errorf("join moved %.0f%% of keys, want ~20%%", frac*100)
	} else if moved == 0 {
		t.Error("join moved nothing; new node owns no keys")
	}
}

// TestRingMinimalReshuffleOnLeave: removing a node strands only its own
// keys; every other key keeps its owner. This is the re-shard guarantee
// the coordinator leans on after a worker death.
func TestRingMinimalReshuffleOnLeave(t *testing.T) {
	r := NewRing(128)
	for _, n := range []string{"w1", "w2", "w3", "w4", "w5"} {
		r.Add(n)
	}
	hashes := testHashes(10_000)
	before := make(map[string]string, len(hashes))
	for _, h := range hashes {
		before[h], _ = r.Owner(h)
	}
	r.Remove("w3")
	for _, h := range hashes {
		after, ok := r.Owner(h)
		if !ok {
			t.Fatal("no owner after removal")
		}
		if after == "w3" {
			t.Fatal("removed node still owns keys")
		}
		if before[h] != "w3" && after != before[h] {
			t.Fatalf("key %s owned by surviving %s moved to %s on unrelated removal",
				h[:12], before[h], after)
		}
	}
}

// TestRingDeterministicAssignment: ownership is a pure function of the
// membership set — insertion order must not matter, and two independent
// rings must agree.
func TestRingDeterministicAssignment(t *testing.T) {
	a := NewRing(64)
	b := NewRing(64)
	for _, n := range []string{"w1", "w2", "w3"} {
		a.Add(n)
	}
	for _, n := range []string{"w3", "w1", "w2"} {
		b.Add(n)
	}
	for _, h := range testHashes(2_000) {
		oa, _ := a.Owner(h)
		ob, _ := b.Owner(h)
		if oa != ob {
			t.Fatalf("insertion order changed ownership of %s: %s vs %s", h[:12], oa, ob)
		}
	}
	// OwnerExcluding with the owner dead picks its successor, stably.
	h := testHashes(1)[0]
	owner, _ := a.Owner(h)
	ex1, ok1 := a.OwnerExcluding(h, map[string]bool{owner: true})
	ex2, ok2 := b.OwnerExcluding(h, map[string]bool{owner: true})
	if !ok1 || !ok2 || ex1 != ex2 || ex1 == owner {
		t.Fatalf("exclusion not deterministic: %q/%v vs %q/%v", ex1, ok1, ex2, ok2)
	}
}

// TestRingOwnerExcluding covers the edge cases: everything excluded, and
// empty rings.
func TestRingOwnerExcluding(t *testing.T) {
	r := NewRing(16)
	if _, ok := r.Owner("deadbeef"); ok {
		t.Error("empty ring returned an owner")
	}
	r.Add("w1")
	r.Add("w2")
	if _, ok := r.OwnerExcluding("deadbeef", map[string]bool{"w1": true, "w2": true}); ok {
		t.Error("fully-excluded ring returned an owner")
	}
	got, ok := r.OwnerExcluding("deadbeef", map[string]bool{"w1": true})
	if !ok || got != "w2" {
		t.Errorf("exclusion returned %q, want w2", got)
	}
	// Idempotent membership ops.
	r.Add("w1")
	r.Remove("nope")
	if n := r.Len(); n != 2 {
		t.Errorf("membership %d, want 2", n)
	}
}

// TestRingSuccessors: every member appears once, and each entry is the
// key's owner once the entries before it have left the ring, so the
// list is the order in which a key's ownership falls through.
func TestRingSuccessors(t *testing.T) {
	nodes := []string{"w1", "w2", "w3", "w4"}
	for _, h := range testHashes(200) {
		r := NewRing(32)
		for _, n := range nodes {
			r.Add(n)
		}
		succ := r.Successors(h)
		if len(succ) != len(nodes) {
			t.Fatalf("key %s: %d successors %v, want %d", h[:12], len(succ), succ, len(nodes))
		}
		for _, n := range succ {
			if owner, _ := r.Owner(h); owner != n {
				t.Fatalf("key %s: successor %s, but the owner once the ones before it left is %s", h[:12], n, owner)
			}
			r.Remove(n)
		}
	}
}
